package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"surge"
)

// collect parses a body with the given parser and gathers the emitted
// objects.
func collect(t *testing.T, parse func(r *bytes.Reader, emit func(surge.Object) error) error, body string) ([]surge.Object, error) {
	t.Helper()
	var out []surge.Object
	err := parse(bytes.NewReader([]byte(body)), func(o surge.Object) error {
		out = append(out, o)
		return nil
	})
	return out, err
}

func ndjson(r *bytes.Reader, emit func(surge.Object) error) error { return parseNDJSON(r, emit) }
func csv(r *bytes.Reader, emit func(surge.Object) error) error    { return parseCSV(r, emit) }

// TestParseObjectJSONMatchesEncodingJSON drives the fast scanner and the
// reflective slow path over the same inputs: both must accept the same
// lines and produce identical objects, since the fast path is only allowed
// to diverge by falling back.
func TestParseObjectJSONMatchesEncodingJSON(t *testing.T) {
	cases := []string{
		`{"time":1,"x":2,"y":3,"weight":4}`,
		`{"time":1,"x":2,"y":3}`,                             // weight defaults to 1
		`{ "time" : 1.5 , "x" : -2e3 , "y" : 3.25e-2 }`,      // whitespace + exponents
		`{"x":2,"y":3,"time":1}`,                             // field order
		`{"time":0,"x":-0,"y":0.0,"weight":0}`,               // zeros
		`{"time":1,"x":2,"y":3,"weight":4,"time":9}`,         // duplicate key: last wins
		`{"time":1,"x":2,"y":3,"weight":null}`,               // null resets to default
		`{"time":null,"x":2,"y":3}`,                          // null required field
		`{"time":1,"x":2}`,                                   // missing y
		`{}`,                                                 // empty object
		`{"time":1,"x":2,"y":3,"extra":"zzz"}`,               // unknown key (slow path)
		`{"time":1,"x":2,"y":3,"extra":{"nested":[1,2]}}`,    // nested unknown
		`{"time":"1","x":2,"y":3}`,                           // wrong type
		`{"time":1e999,"x":2,"y":3}`,                         // out of range
		`{"time":01,"x":2,"y":3}`,                            // invalid JSON number
		`{"time":+1,"x":2,"y":3}`,                            // '+' not JSON
		`{"time":1.,"x":2,"y":3}`,                            // bare fraction dot
		`{"time":1,"x":2,"y":3} trailing`,                    // trailing garbage
		`["time",1]`,                                         // not an object
		`{"time":1,"x":2,"y":3,"weight":2.5000000000000004}`, // round-trip bits
		`{"tim\u0065":1,"x":2,"y":3}`,                        // escaped key (slow path)
	}
	for _, line := range cases {
		checkObjectJSON(t, []byte(line))
	}
}

// checkObjectJSON requires parseObjectJSON and the reflective decoder to
// agree on one line: both accept it with identical objects, or both reject
// it.
func checkObjectJSON(t *testing.T, line []byte) {
	t.Helper()
	fast, fastErr := parseObjectJSON(line)
	slow, slowErr := slowObjectJSON(line)
	if (fastErr == nil) != (slowErr == nil) {
		t.Fatalf("%s: fast err %v, slow err %v", line, fastErr, slowErr)
	}
	if fastErr == nil && fast != slow {
		t.Fatalf("%s: fast %+v != slow %+v", line, fast, slow)
	}
}

func TestParseNDJSON(t *testing.T) {
	body := `{"time":1,"x":2,"y":3}

{"time":2,"x":4,"y":5,"weight":0.5}
`
	objs, err := collect(t, ndjson, body)
	if err != nil {
		t.Fatal(err)
	}
	want := []surge.Object{
		{Time: 1, X: 2, Y: 3, Weight: 1},
		{Time: 2, X: 4, Y: 5, Weight: 0.5},
	}
	if len(objs) != len(want) {
		t.Fatalf("got %d objects, want %d", len(objs), len(want))
	}
	for i := range want {
		if objs[i] != want[i] {
			t.Fatalf("object %d: got %+v want %+v", i, objs[i], want[i])
		}
	}

	if _, err := collect(t, ndjson, `{"time":1,"x":2,"y":3}`+"\n"+`{"x":1}`); err == nil ||
		!strings.Contains(err.Error(), "line 2") {
		t.Fatalf("missing-field error should carry the line number, got %v", err)
	}
}

func TestParseCSV(t *testing.T) {
	body := "# header comment\n1,2,3,4\n 2 , 4 , 5 , 0.5 \n"
	objs, err := collect(t, csv, body)
	if err != nil {
		t.Fatal(err)
	}
	want := []surge.Object{
		{Time: 1, X: 2, Y: 3, Weight: 4},
		{Time: 2, X: 4, Y: 5, Weight: 0.5},
	}
	if len(objs) != len(want) {
		t.Fatalf("got %d objects, want %d", len(objs), len(want))
	}
	for i := range want {
		if objs[i] != want[i] {
			t.Fatalf("object %d: got %+v want %+v", i, objs[i], want[i])
		}
	}
	for _, bad := range []string{"1,2,3\n", "1,2,3,4,5\n", "1,x,3,4\n"} {
		if _, err := collect(t, csv, bad); err == nil {
			t.Fatalf("want error for %q", bad)
		}
	}
}

// TestParseLineTooLong exercises the bufio.ErrTooLong satellite fix: an
// oversized line must be reported with its line number and an actionable
// message, not bufio's bare "token too long".
func TestParseLineTooLong(t *testing.T) {
	long := strings.Repeat("9", maxLineBytes+10)
	for name, parse := range map[string]func(r *bytes.Reader, emit func(surge.Object) error) error{
		"ndjson": ndjson, "csv": csv,
	} {
		body := "1,2,3,4\n1,2,3," + long + "\n"
		if name == "ndjson" {
			body = `{"time":1,"x":2,"y":3}` + "\n" + `{"time":1,"x":2,"y":` + long + `}` + "\n"
		}
		_, err := collect(t, func(r *bytes.Reader, emit func(surge.Object) error) error { return parse(r, emit) }, body)
		if err == nil {
			t.Fatalf("%s: want error for oversized line", name)
		}
		if !errors.Is(err, bufio.ErrTooLong) {
			t.Fatalf("%s: error should wrap bufio.ErrTooLong, got %v", name, err)
		}
		if !strings.Contains(err.Error(), "line 2") {
			t.Fatalf("%s: error should name line 2, got %v", name, err)
		}
	}
}

// TestParseObjectJSONZeroAlloc is the allocation-regression guard for the
// NDJSON fast path: decoding one canonical wire line must not touch the
// heap.
func TestParseObjectJSONZeroAlloc(t *testing.T) {
	line := []byte(`{"time":1747.25,"x":-73.98211,"y":40.767937,"weight":2.5}`)
	allocs := testing.AllocsPerRun(1000, func() {
		o, err := parseObjectJSON(line)
		if err != nil || o.Weight != 2.5 {
			t.Fatal("bad parse")
		}
	})
	if allocs != 0 {
		t.Fatalf("parseObjectJSON allocates %v allocs/op, want 0", allocs)
	}
}

// TestParseNDJSONAmortizedAllocs checks the whole streaming parser: over a
// large body the per-request scanner setup is the only heap traffic, so the
// per-line average must be (amortised) zero.
func TestParseNDJSONAmortizedAllocs(t *testing.T) {
	var buf bytes.Buffer
	const lines = 4096
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&buf, `{"time":%d,"x":%g,"y":%g,"weight":1}`+"\n", i, math.Sqrt(float64(i)), float64(i)*0.25)
	}
	body := buf.Bytes()
	r := bytes.NewReader(body)
	var n int
	allocs := testing.AllocsPerRun(10, func() {
		r.Reset(body)
		n = 0
		if err := parseNDJSON(r, func(o surge.Object) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
	})
	if n != lines {
		t.Fatalf("parsed %d lines, want %d", n, lines)
	}
	if perLine := allocs / lines; perLine > 0.01 {
		t.Fatalf("parseNDJSON allocates %v allocs/line (%v per request), want amortised 0", perLine, allocs)
	}
}

func TestIngestChunkPoolReuse(t *testing.T) {
	s := &Server{batch: 8}
	s.chunkPool.New = func() any {
		c := make([]surge.Object, 0, s.batch)
		return &c
	}
	c := s.getChunk()
	*c = append(*c, surge.Object{Time: 1})
	s.putChunk(c)
	c2 := s.getChunk()
	if len(*c2) != 0 || cap(*c2) != 8 {
		t.Fatalf("recycled chunk has len %d cap %d, want 0/8", len(*c2), cap(*c2))
	}
}
