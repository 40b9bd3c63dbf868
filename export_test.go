package snip

// ArenaCRC returns the CRC of a table's image arena, the generation
// identity the OTA protocol negotiates with, for the external tests.
func ArenaCRC(t *Table) uint32 { return t.t.ArenaCRC() }
