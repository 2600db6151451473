package lib

import "testing"

// Test files are not scanned: nothing here keeps a finding away.
func TestFixture(t *testing.T) {
	DeadExport()
	if testOnly() != 1 || Run(Options{Unset: 2}).Unread != 1 || !Run(Options{}).Stale {
		t.Fatal("fixture")
	}
}
