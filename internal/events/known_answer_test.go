package events

import "testing"

// TestEventHashKnownAnswers pins Event.Hash — the event hash-code the
// lookup tables index on — at the edges of the hash kernel's value-width
// shortcuts, for every event type. The values were computed by the
// byte-at-a-time FNV-1a loop Event.Hash used to carry.
func TestEventHashKnownAnswers(t *testing.T) {
	for _, c := range []struct {
		typ  Type
		vals []int64
		want uint64
	}{
		{Tap, []int64{0, 0}, 0xd852dcb87b6f12a3},
		{Tap, []int64{255, -255}, 0x967746bfc50e5d1a},
		{Tap, []int64{256, -256}, 0x48d1ef677b11baef},
		{Tap, []int64{65535, -65535}, 0x98ae5ab68e7adba},
		{Tap, []int64{65536, -65536}, 0xff26121ca846fe7c},
		{Tap, []int64{4294967296, -4294967296}, 0x5c7f11b8e5bbd54e},
		{Tap, []int64{-9223372036854775808, -9223372036854775808}, 0x8d7d0b82c8e942a3},
		{Tap, []int64{-1, 1}, 0xf86845725b8d31fa},
		{Tap, []int64{-2401053089206439923, 2401053089206439923}, 0xc346855b6c125a2a},
		{Tap, []int64{-2, 2}, 0x739bacec0e926398},
		{Tap, []int64{-256, 256}, 0x42382a3523f38e6f},
		{Tap, []int64{-65536, 65536}, 0xc2b59d2a01ee0fdc},
		{Tap, []int64{-1, -2, -256}, 0xa1f62c38c05b02a5},
		{Swipe, []int64{-1, -2, -256}, 0x86df686ec3f33ca4},
		{Drag, []int64{-1, -2, -256}, 0x1092bcc99caca9a7},
		{MultiTouch, []int64{-1, -2, -256}, 0xaf35674b4c0ab9a6},
		{Tilt, []int64{-1, -2, -256}, 0x5d12894c403d62a1},
		{Shake, []int64{-1, -2, -256}, 0xea63694b620942a0},
		{GPSFix, []int64{-1, -2, -256}, 0xd8a4b2d9c26f9fa3},
		{CameraFrame, []int64{-1, -2, -256}, 0x6cb1d5cf48bab1a2},
		{VSync, []int64{-1, -2, -256}, 0x990b71d224425a9d},
		{Tap, nil, 0x47fe0d7eaf8e51e3},
	} {
		e := &Event{Type: c.typ, Values: c.vals}
		if got := e.Hash(); got != c.want {
			t.Errorf("%v%v: Hash = %#x, want %#x", c.typ, c.vals, got, c.want)
		}
	}
}
