package server

import "testing"

// FuzzObjectJSON is TestParseObjectJSONMatchesEncodingJSON over arbitrary
// lines: the fast NDJSON object scanner must accept exactly the lines
// encoding/json accepts, with identical objects. Its seed corpus
// (testdata/fuzz/FuzzObjectJSON) is that test's table.
func FuzzObjectJSON(f *testing.F) {
	f.Fuzz(checkObjectJSON)
}
