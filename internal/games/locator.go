package games

import (
	"strings"

	"snip/internal/events"
	"snip/internal/trace"
)

// Locator is a game's pre-execution read side: what the SNIP runtime
// reads, without executing, when it compares an event's necessary inputs
// against the table (§V-B). Locate compiles a traced input field's
// record name once; Peek then reads its live value by index, hashing no
// name. It is also the short-circuit's write side: Var compiles a served
// output's name to a handle once, and SetAt writes its value.
type Locator struct{ s *Store }

// Loc is a compiled input field: an index into the pending event's
// values or the store's digests, a location's handle, or a constant.
type Loc struct {
	kind locKind
	i    int32
	v    uint64 // locConst's value
}

type locKind uint8

const (
	locConst locKind = iota
	locEvent
	locVar
	locBlob
)

// Locate compiles the record name of an input to events of type t:
//
//   - "event.<t>.<field>" reads that field of the pending event;
//   - "state.<name>" reads the location, or 0 if it is undeclared;
//   - "state.<prefix>*" reads the digest of the locations under prefix.
//
// Any other name — extern data, another type's event fields — cannot be
// read before execution: ok is false and Peek returns trace.Absent. A
// declared location's Loc holds its handle and stays valid for this
// Locator; the others stay valid while Layout returns the same value.
func (l Locator) Locate(t events.Type, name string) (loc Loc, ok bool) {
	if n, isState := strings.CutPrefix(name, "state."); isState {
		if prefix, isBlob := strings.CutSuffix(n, "*"); isBlob {
			return Loc{kind: locBlob, i: l.s.digestIndex(prefix)}, true
		}
		if v, declared := l.s.index[n]; declared {
			return Loc{kind: locVar, i: int32(v)}, true
		}
		return Loc{kind: locConst}, true
	}
	if f, isEvent := strings.CutPrefix(name, "event."+t.String()+"."); isEvent {
		if i := events.FieldIndex(t, f); i >= 0 {
			return Loc{kind: locEvent, i: int32(i)}, true
		}
	}
	return Loc{kind: locConst, v: trace.Absent}, false
}

// Peek reads a located input's live value before e executes; e has the
// type loc was compiled for.
func (l Locator) Peek(loc Loc, e *events.Event) uint64 {
	switch loc.kind {
	case locEvent:
		return uint64(e.Values[loc.i])
	case locVar:
		return uint64(l.s.vals[loc.i])
	case locBlob:
		return l.s.fold(&l.s.digests[loc.i])
	}
	return loc.v
}

// Layout changes whenever a store insert or a size change drops
// digests, which is when a blob's Loc, or an undeclared location's,
// compiled before it may go stale.
func (l Locator) Layout() uint64 { return l.s.layout }

// Var returns the handle of the location an Out.History output named
// name writes, as ApplyOutputs resolves it: "state.<n>", or a bare n,
// names location n. ok is false while n is undeclared.
func (l Locator) Var(name string) (v Var, ok bool) {
	v, ok = l.s.index[strings.TrimPrefix(name, "state.")]
	return v, ok
}

// SetAt writes a served output's value to the location v, as
// ApplyOutputs writes it by name.
func (l Locator) SetAt(v Var, x int64) { l.s.SetAt(v, x) }
