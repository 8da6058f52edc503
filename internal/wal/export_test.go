package wal

import "testing"

// Segment is the segment file interface, named for the tests outside the
// package that wrap it.
type Segment = segment

// WrapSegments routes every segment file the package opens through wrap
// until the test ends.
func WrapSegments(t testing.TB, wrap func(Segment) Segment) {
	t.Helper()
	orig := openSegment
	openSegment = func(path string) (segment, error) {
		f, err := orig(path)
		if err != nil {
			return nil, err
		}
		return wrap(f), nil
	}
	t.Cleanup(func() { openSegment = orig })
}

// DecodeRecords decodes the whole record frames at the start of p.
func DecodeRecords(p []byte) []Record {
	var out []Record
	for len(p) > 0 {
		r, n, err := decodeRecord(p)
		if err != nil {
			break
		}
		out = append(out, r)
		p = p[n:]
	}
	return out
}
