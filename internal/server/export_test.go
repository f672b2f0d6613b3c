package server

// Record types, for the external tests that append journal records.
const (
	JournalWindow = jrecWindow
	JournalEvict  = jrecEvict
)
