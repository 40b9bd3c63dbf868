package chaos

import "snip/internal/memo"

// poisonMask is XORed into output values of poisoned entries. Any
// non-zero constant works: the point is that a poisoned entry replays
// outputs that differ from the ground truth, which is exactly what
// shadow verification exists to catch.
const poisonMask = 0xBAD5EED0DEADBEEF

// MaybePoisonTable returns a corrupted copy of an OTA-fetched table when
// TablePoisonRate > 0: a fraction of entries have their output values
// XORed with a constant, so memo hits on those entries replay wrong
// outputs (the paper's mispredict failure mode, induced on purpose).
// The copy is the table's own image with those values changed and its
// CRCs re-stamped, reloaded like any OTA image, so the guard exercises
// the serving path the fleet runs. The input table is never modified —
// devices already holding it keep a clean snapshot, which is what makes
// Rollback meaningful. With the rate at zero (or a nil injector) the
// original table is returned untouched. Which entries are poisoned is
// deterministic: the decision stream is derived from the profile seed
// and the table's content fingerprint, and entries are visited in image
// order.
func (i *Injector) MaybePoisonTable(t *memo.FlatTable) (*memo.FlatTable, int) {
	if i == nil || i.prof.TablePoisonRate <= 0 || t == nil {
		return t, 0
	}
	src := i.source(tagTable, t.Fingerprint())
	bad, poisoned := t.XorOutputs(poisonMask, func() bool { return src.Bool(i.prof.TablePoisonRate) })
	if poisoned > 0 {
		i.count(&i.entriesPoisoned, "", int64(poisoned))
		i.count(&i.tablesPoisoned, "table_poisoned", 1)
	}
	return bad, poisoned
}
