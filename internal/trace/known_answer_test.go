package trace

import "testing"

// The known-answer tests pin the literal output of every hash the
// repository keys on, at the edges of the value-width shortcuts: zero,
// one, two and more bytes, the top bit, all ones, the absent sentinel
// and negative int64s. The values were computed by the byte-at-a-time
// FNV loops before the table-driven kernel replaced them; golden
// digests, image CRCs and the figures depend on every one of them.

func TestCombineKnownAnswers(t *testing.T) {
	for _, c := range []struct{ a, b, want uint64 }{
		{0x0, 0x0, 0x0},
		{0x0, 0xff, 0x8d290ec781ff0825},
		{0x0, 0x100, 0xdc966432edf1c639},
		{0x0, 0xffff, 0x947e96df62623ca2},
		{0x0, 0x10000, 0xcaee32a7d4f6a63},
		{0x0, 0x100000000, 0x8a97b0004e7feab},
		{0x0, 0x8000000000000000, 0x80},
		{0x0, 0xffffffffffffffff, 0x8c65e01d2f2ff1a8},
		{0x0, 0xdeadbeefcafef00d, 0xd63d3e4e903a4acd},
		{0x0, 0xfffffffffffffffe, 0xf01b497135b12883},
		{0x0, 0xffffffffffffff00, 0x7f60fd19f61a97cd},
		{0x0, 0xffffffffffff0000, 0x62ad649d30d2bf06},
		{0x14650fb0739d0383, 0x0, 0x47fe0d7eaf8e51e3},
		{0x14650fb0739d0383, 0xff, 0xf88f70f0625b5042},
		{0x14650fb0739d0383, 0x100, 0x6b67a94bc19c8baa},
		{0x14650fb0739d0383, 0xffff, 0x62050f0af74cc685},
		{0x14650fb0739d0383, 0x10000, 0x3b4f2a54323ee780},
		{0x14650fb0739d0383, 0x100000000, 0x3f54927eaaa65338},
		{0x14650fb0739d0383, 0x8000000000000000, 0x47fe0d7eaf8e5163},
		{0x14650fb0739d0383, 0xffffffffffffffff, 0x33e1aecc2a21938b},
		{0x14650fb0739d0383, 0xdeadbeefcafef00d, 0xb6b63960cea182e6},
		{0x14650fb0739d0383, 0xfffffffffffffffe, 0x795a561ac4e27ab0},
		{0x14650fb0739d0383, 0xffffffffffffff00, 0x53b0e345d8afadea},
		{0x14650fb0739d0383, 0xffffffffffff0000, 0x84a0c89f46682ae9},
		{0x1234567890abcdef, 0x0, 0xaa78cc33e7cda1cf},
		{0x1234567890abcdef, 0xff, 0x82f1dda4dfcee456},
		{0x1234567890abcdef, 0x100, 0xcde26800f9dbdb96},
		{0x1234567890abcdef, 0xffff, 0xe5b2f9fcbc4e0c71},
		{0x1234567890abcdef, 0x10000, 0x9dc9e9096a7e376c},
		{0x1234567890abcdef, 0x100000000, 0xa1cf5133e2e5a324},
		{0x1234567890abcdef, 0x8000000000000000, 0xaa78cc33e7cda14f},
		{0x1234567890abcdef, 0xffffffffffffffff, 0x3f1d9d9b6f208777},
		{0x1234567890abcdef, 0xdeadbeefcafef00d, 0xa5f9472c97967672},
		{0x1234567890abcdef, 0xfffffffffffffffe, 0x4cfd8a1d577d8c9c},
		{0x1234567890abcdef, 0xffffffffffffff00, 0x6ceadaacfbc77ffe},
		{0x1234567890abcdef, 0xffffffffffff0000, 0x1b8b258af45740d5},
	} {
		if got := Combine(c.a, c.b); got != c.want {
			t.Errorf("Combine(%#x, %#x) = %#x, want %#x", c.a, c.b, got, c.want)
		}
	}
}

func TestMixKnownAnswers(t *testing.T) {
	for _, c := range []struct{ h, v, want uint64 }{
		{0x0, 0x0, 0x0},
		{0x0, 0xff, 0xdbcc4201e45ad6df},
		{0x0, 0x100, 0xc5527b8a51d3d2db},
		{0x0, 0xffff, 0xb556ff942ced0746},
		{0x0, 0x10000, 0xdc966432edf1c639},
		{0x0, 0x100000000, 0x9ffaac085635bc91},
		{0x0, 0x8000000000000000, 0x80000000d980},
		{0x0, 0xffffffffffffffff, 0xc10d79972e77a078},
		{0x0, 0xdeadbeefcafef00d, 0x445bac7f130d1a57},
		{0x0, 0xfffffffffffffffe, 0xaf864e5e3c07d699},
		{0x0, 0xffffffffffffff00, 0x8c65e01d2f2ff157},
		{0x0, 0xffffffffffff0000, 0x7f60fd19f61a9732},
		{0x14650fb0739d0383, 0x0, 0x47fe0d7eaf8e51e3},
		{0x14650fb0739d0383, 0xff, 0x6f229c3f63034afc},
		{0x14650fb0739d0383, 0x100, 0x82ab91f45dba7f08},
		{0x14650fb0739d0383, 0xffff, 0x804df083d321cf29},
		{0x14650fb0739d0383, 0x10000, 0x6b67a94bc19c8baa},
		{0x14650fb0739d0383, 0x100000000, 0xa803617659589552},
		{0x14650fb0739d0383, 0x8000000000000000, 0x47fe8d7eaf8f2b63},
		{0x14650fb0739d0383, 0xffffffffffffffff, 0xa2e4fe0a8a14645b},
		{0x14650fb0739d0383, 0xdeadbeefcafef00d, 0xe718d6ed3ede2bb0},
		{0x14650fb0739d0383, 0xfffffffffffffffe, 0xbf141897110b0c3a},
		{0x14650fb0739d0383, 0xffffffffffffff00, 0x33e1aecc2a219374},
		{0x14650fb0739d0383, 0xffffffffffff0000, 0x53b0e345d8afad15},
		{0x1234567890abcdef, 0x0, 0xaa78cc33e7cda1cf},
		{0x1234567890abcdef, 0xff, 0xae056b53615c0f10},
		{0x1234567890abcdef, 0x100, 0xe52650a995f9cef4},
		{0x1234567890abcdef, 0xffff, 0x3c40263c33ec0515},
		{0x1234567890abcdef, 0x10000, 0xcde26800f9dbdb96},
		{0x1234567890abcdef, 0x100000000, 0xa7e202b9197e53e},
		{0x1234567890abcdef, 0x8000000000000000, 0xaa794c33e7ce7b4f},
		{0x1234567890abcdef, 0xffffffffffffffff, 0xe8cc0698f2274447},
		{0x1234567890abcdef, 0xdeadbeefcafef00d, 0x36bc80780dfbae1c},
		{0x1234567890abcdef, 0xfffffffffffffffe, 0x555c1d2e3cf15826},
		{0x1234567890abcdef, 0xffffffffffffff00, 0x3f1d9d9b6f208788},
		{0x1234567890abcdef, 0xffffffffffff0000, 0x6ceadaacfbc77f01},
	} {
		if got := Mix(c.h, c.v); got != c.want {
			t.Errorf("Mix(%#x, %#x) = %#x, want %#x", c.h, c.v, got, c.want)
		}
	}
}

func TestHashValuesKnownAnswers(t *testing.T) {
	for _, c := range []struct {
		vs   []int64
		want uint64
	}{
		{[]int64{0}, 0x47fe0d7eaf8e51e3},
		{[]int64{255}, 0x6f229c3f63034afc},
		{[]int64{256}, 0x82ab91f45dba7f08},
		{[]int64{65535}, 0x804df083d321cf29},
		{[]int64{65536}, 0x6b67a94bc19c8baa},
		{[]int64{4294967296}, 0xa803617659589552},
		{[]int64{-9223372036854775808}, 0x47fe8d7eaf8f2b63},
		{[]int64{-1}, 0xa2e4fe0a8a14645b},
		{[]int64{-2401053089206439923}, 0xe718d6ed3ede2bb0},
		{[]int64{-2}, 0xbf141897110b0c3a},
		{[]int64{-256}, 0x33e1aecc2a219374},
		{[]int64{-65536}, 0x53b0e345d8afad15},
		{[]int64{-1, -2, -255, -65536, -9223372036854775808, 0, 255, 65536}, 0xca284d334ae01b70},
		{nil, 0x14650fb0739d0383},
	} {
		if got := HashValues(c.vs...); got != c.want {
			t.Errorf("HashValues(%v) = %#x, want %#x", c.vs, got, c.want)
		}
	}
}

func TestHashStringKnownAnswers(t *testing.T) {
	for _, c := range []struct {
		s    string
		want uint64
	}{
		{"", 0x14650fb0739d0383},
		{"a", 0x44bd8ad473cd9906},
		{"state.score", 0x5d4f994931edaebc},
		{"event.tap.x", 0x3e99b8711cc0f42c},
		{"\xff\x00", 0x9a514900c53482dc},
	} {
		if got := HashString(c.s); got != c.want {
			t.Errorf("HashString(%q) = %#x, want %#x", c.s, got, c.want)
		}
	}
}

// katEdges are the values the dataset known-answer rows log.
var katEdges = []uint64{0, 0xff, 0x100, 0xffff, 0x10000, 1 << 32, 1 << 63, ^uint64(0),
	0xdeadbeefcafef00d, 0xfffffffffffffffe, 0xffffffffffffff00, 0xffffffffffff0000}

func TestDatasetHashKnownAnswers(t *testing.T) {
	wantIn := []uint64{
		0x96dff515067f693b,
		0x8f4fa9e9c6fe16c7,
		0x60fcce46a7b050fb,
		0x365065d0f2508a9b,
		0x145176ab140343b3,
		0xa6469987e995a743,
		0xcd14f24b2c1a563b,
		0xc6e21a54a79b590b,
		0xc2ba390d9041cab,
		0xe1a121cc88976a73,
		0x2616cd02eca3aa07,
		0x8565965389bd8003,
	}
	wantOut := []uint64{
		0xdfb166d99c9d5f8d,
		0x5f29221d41e8f552,
		0x1a5eeb4f4ac98cb2,
		0xafa96accdface4d3,
		0x31b02a6aeab9954,
		0x3fb6bad14667a2fc,
		0xdfb0e6d99c9c860d,
		0x8ea9b576f7a21c05,
		0xc5f6e17897e71d86,
		0xfdf735aa88e6abe4,
		0xcfd4d69888852dca,
		0xae9b79c42c8b14bf,
	}
	d := &Dataset{Game: "kat"}
	for i, v := range katEdges {
		d.Append(rec(int64(i), "tap", true,
			[]Field{f("event.tap.x", InEvent, 4, v), f("state.score", InHistory, 8, ^v)},
			[]Field{f("state.score", OutHistory, 8, v)}))
	}
	for i, v := range katEdges {
		if got := d.InputHash(i); got != wantIn[i] {
			t.Errorf("InputHash(row with %#x) = %#x, want %#x", v, got, wantIn[i])
		}
		if got := d.OutputHash(i); got != wantOut[i] {
			t.Errorf("OutputHash(row with %#x) = %#x, want %#x", v, got, wantOut[i])
		}
	}
}

// TestKeySeedPinned pins the two constants every key chain starts from
// and fills with. KeySeed is the standard FNV-1a offset basis with its
// last digit dropped; the digests above depend on that exact value.
func TestKeySeedPinned(t *testing.T) {
	if KeySeed != 1469598103934665603 {
		t.Fatalf("KeySeed = %d", KeySeed)
	}
	if Absent != 0xdeadbeefcafef00d {
		t.Fatalf("Absent = %#x", Absent)
	}
}
