package cloud

import (
	"bytes"
	"encoding/gob"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"snip/internal/memo"
	"snip/internal/trace"
)

// otaStub is an httptest server that answers every /v1/update request
// with one canned reply and records the gen each request asked for.
func otaStub(t *testing.T, format string, body []byte) (*Client, func() []string) {
	t.Helper()
	var mu sync.Mutex
	var gens []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		gens = append(gens, r.URL.Query().Get("gen"))
		mu.Unlock()
		if format != "" {
			w.Header().Set("X-Snip-Format", format)
		}
		_, _ = w.Write(body)
	}))
	t.Cleanup(srv.Close)
	return NewClient(srv.URL), func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), gens...)
	}
}

// A full-table reply that is not a flat image fails both fetch calls:
// no other payload is decoded, and nothing falls back.
func TestFetchRejectsNonFlatBody(t *testing.T) {
	var gobBody bytes.Buffer
	if err := gob.NewEncoder(&gobBody).Encode(struct {
		Game    string
		Version int
	}{"Colorphun", 2}); err != nil {
		t.Fatal(err)
	}
	img, err := memo.SynthTable(8).FlatImage()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, format string
		body         []byte
	}{
		{"gob body", "gob", gobBody.Bytes()},
		{"gob body labeled flat", "flat", gobBody.Bytes()},
		{"garbage labeled flat", "flat", []byte("not a table")},
		{"flat image with no format", "", img},
		{"truncated image", "flat", img[:len(img)/2]},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			client, _ := otaStub(t, c.format, c.body)
			if up, err := client.FetchTable("Colorphun"); err == nil {
				t.Fatalf("FetchTable accepted it: %+v", up)
			}
			if res, err := client.FetchUpdate("Colorphun", 0, nil); err == nil {
				t.Fatalf("FetchUpdate accepted it: %+v", res)
			}
		})
	}
}

// A delta reply to a gen=0 request is an error, reached without a second
// request: the full-image fallback never recurses.
func TestFetchDeltaReplyToGenZero(t *testing.T) {
	client, gens := otaStub(t, "delta", []byte("not a chain"))
	if _, err := client.FetchTable("Colorphun"); err == nil {
		t.Fatal("FetchTable accepted a delta reply")
	}
	if got := gens(); len(got) != 1 || got[0] != "0" {
		t.Fatalf("FetchTable made requests for gens %q, want one for gen 0", got)
	}

	client, gens = otaStub(t, "delta", []byte("not a chain"))
	have, err := memo.Flatten(memo.SynthTable(8))
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.FetchUpdate("Colorphun", 1, have)
	if err == nil {
		t.Fatalf("FetchUpdate accepted a delta reply to its fallback: %+v", res)
	}
	if got := gens(); len(got) != 2 || got[0] != "1" || got[1] != "0" {
		t.Fatalf("FetchUpdate made requests for gens %q, want gen 1 then one gen 0 fallback", got)
	}
}

// An update reply whose stated length is over the decoded-delta cap is
// refused before a byte of it is read, by both fetch calls.
func TestFetchRejectsOversizeBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Snip-Format", "flat")
		w.Header().Set("Content-Length", strconv.Itoa(trace.DefaultMaxDecodedDelta+1))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("SNIPFLT1"))
	}))
	defer srv.Close()
	client := NewClient(srv.URL)
	if up, err := client.FetchTable("Colorphun"); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("FetchTable = %+v, %v; want the cap error", up, err)
	}
	if res, err := client.FetchUpdate("Colorphun", 0, nil); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("FetchUpdate = %+v, %v; want the cap error", res, err)
	}
}

// readBody reads a stated length into a buffer of exactly that length,
// and refuses a body of no stated length, one over the cap, and one
// longer or shorter than it states.
func TestReadBodyBounds(t *testing.T) {
	reply := func(body string, stated int64) *http.Response {
		return &http.Response{Body: io.NopCloser(strings.NewReader(body)), ContentLength: stated}
	}
	for _, c := range []struct {
		name   string
		resp   *http.Response
		wantOK bool
	}{
		{"stated", reply("0123456789", 10), true},
		{"unstated", reply("0123456789", -1), false},
		{"stated over the cap", reply("0123456789abcdef", 16), false},
		{"longer than stated", reply("0123456789", 8), false},
		{"shorter than stated", reply("01234567", 10), false},
	} {
		body, err := readBody(c.resp, 12)
		if (err == nil) != c.wantOK {
			t.Fatalf("%s: read %q, %v", c.name, body, err)
		}
		if c.wantOK && (string(body) != "0123456789" || cap(body) != len(body)) {
			t.Fatalf("%s: read %q into a buffer of %d", c.name, body, cap(body))
		}
	}
}
