package patio

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	vectors := [][]bool{
		{true, false, true},
		{false, false, false},
		{true, true, true},
	}
	var buf bytes.Buffer
	if err := Write(&buf, vectors); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("%d patterns", len(got))
	}
	for i := range vectors {
		for j := range vectors[i] {
			if got[i][j] != vectors[i][j] {
				t.Fatalf("pattern %d bit %d wrong", i, j)
			}
		}
	}
}

func TestReadCommentsAndBlanks(t *testing.T) {
	src := "# header\n\n101 # trailing comment\n010\n"
	got, err := Read(strings.NewReader(src), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !got[0][0] || got[0][1] {
		t.Fatalf("parsed wrong: %v", got)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct {
		src   string
		width int
	}{
		{"10x\n", 0},
		{"101\n10\n", 0},
		{"101\n", 4},
	}
	for i, c := range cases {
		if _, err := Read(strings.NewReader(c.src), c.width); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestReadEdgeCases covers the inputs real pattern files produce: Windows
// line endings, padding blank lines, comments interleaved with patterns,
// and a missing final newline.
func TestReadEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		width int
		want  int // patterns parsed
	}{
		{"crlf", "101\r\n010\r\n", 0, 2},
		{"crlf with header", "# exported\r\n11\r\n00\r\n", 2, 2},
		{"trailing blank line", "101\n010\n\n", 0, 2},
		{"trailing blank lines and spaces", "11\n00\n \n\t\n", 0, 2},
		{"comment between patterns", "101\n# checkpoint\n010\n", 3, 2},
		{"indented pattern", "  101\n\t010\n", 3, 2},
		{"comment only", "# nothing else\n", 0, 0},
		{"no final newline", "101\n010", 0, 2},
		{"whole-line comment then width change ok", "# 5 wide\n10101\n", 5, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := Read(strings.NewReader(c.src), c.width)
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
			if len(got) != c.want {
				t.Fatalf("parsed %d patterns, want %d", len(got), c.want)
			}
		})
	}
}

// TestReadErrorPositions checks that parse errors carry the 1-based line
// (and for bad bits, column) of the offending input, so a user can fix a
// multi-megabyte pattern file without bisecting it.
func TestReadErrorPositions(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		width int
		want  string
	}{
		{"bad bit reports line and column", "101\n012\n", 0, "patio:2:3: invalid bit '2'"},
		{"bad bit after comment lines", "# a\n# b\n1x1\n", 0, "patio:3:2: invalid bit 'x'"},
		{"width mismatch reports line", "101\n01\n", 3, "patio:2: pattern has 2 bits, want 3"},
		{"inconsistent width reports line", "101\n\n# note\n0110\n", 0, "patio:4: inconsistent pattern width 4 vs 3"},
		{"crlf does not shift columns", "11\r\n1z\r\n", 0, "patio:2:2: invalid bit 'z'"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(c.src), c.width)
			if err == nil {
				t.Fatal("expected error")
			}
			if err.Error() != c.want {
				t.Errorf("error %q, want %q", err, c.want)
			}
		})
	}
}

// TestRoundTripCRLFRewrite: a file written on Windows (CRLF) round-trips
// through Read and a fresh Write into canonical LF form with the same bits.
func TestRoundTripCRLFRewrite(t *testing.T) {
	vectors, err := Read(strings.NewReader("10\r\n01\r\n"), 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, vectors); err != nil {
		t.Fatal(err)
	}
	want := "# 2 patterns, 2 inputs\n10\n01\n"
	if buf.String() != want {
		t.Errorf("rewrite:\n got %q\nwant %q", buf.String(), want)
	}
}

func TestEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf, 0)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty round-trip: %v %v", got, err)
	}
}

// fill is an endless reader of one byte value.
type fill byte

func (f fill) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

// TestReadLongLines checks that the reader, whose line buffer starts small,
// takes a pattern wider than 1 MiB and still refuses a line over its
// 16 MiB cap.
func TestReadLongLines(t *testing.T) {
	vecs, err := Read(io.LimitReader(fill('1'), 1<<20+1), 0)
	if err != nil || len(vecs) != 1 || len(vecs[0]) != 1<<20+1 || !vecs[0][1<<20] {
		t.Errorf("1 MiB pattern: %d patterns, err %v", len(vecs), err)
	}
	if _, err := Read(io.LimitReader(fill('1'), 1<<24+1), 0); !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("16 MiB pattern: err %v, want %v", err, bufio.ErrTooLong)
	}
}
