package setcover

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The instance text format is deliberately simple so instances can be
// inspected, generated by other tools, and diffed:
//
//	# comments and blank lines are ignored
//	setcover <n> <m>
//	<id> <e1> <e2> ... <ek>     (one line per set, elements in [0, n))
//
// Set lines must appear in ID order 0..m-1. An empty set is a line with only
// its ID. Write always produces sorted element lists.

// Write serializes the instance in the text format above.
func Write(w io.Writer, in *Instance) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "setcover %d %d\n", in.N, len(in.Sets)); err != nil {
		return err
	}
	for _, s := range in.Sets {
		if _, err := fmt.Fprintf(bw, "%d", s.ID); err != nil {
			return err
		}
		for _, e := range s.Elems {
			if _, err := fmt.Fprintf(bw, " %d", e); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses an instance in the text format and validates it.
func Read(r io.Reader) (*Instance, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	line := 0
	next := func() (string, bool) {
		for sc.Scan() {
			line++
			t := strings.TrimSpace(sc.Text())
			if t == "" || strings.HasPrefix(t, "#") {
				continue
			}
			return t, true
		}
		return "", false
	}

	header, ok := next()
	if !ok {
		return nil, fmt.Errorf("setcover: empty input")
	}
	var n, m int
	if _, err := fmt.Sscanf(header, "setcover %d %d", &n, &m); err != nil {
		return nil, fmt.Errorf("setcover: line %d: bad header %q: %v", line, header, err)
	}
	if n < 0 || m < 0 {
		return nil, fmt.Errorf("setcover: line %d: negative dimensions", line)
	}
	if n > MaxBinaryDim || m > MaxBinaryDim {
		// Elements are int32, and the binary format could not carry it.
		return nil, fmt.Errorf("setcover: line %d: dimensions exceed %d", line, MaxBinaryDim)
	}

	// Cap the speculative allocation: m is untrusted header data, and each
	// real set costs at least one input line, so growth beyond the cap is
	// bounded by the input size.
	in := &Instance{N: n, Sets: make([]Set, 0, preallocCap(uint64(m)))}
	for i := 0; i < m; i++ {
		t, ok := next()
		if !ok {
			return nil, fmt.Errorf("setcover: expected %d set lines, got %d", m, i)
		}
		fields := strings.Fields(t)
		id, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("setcover: line %d: bad set ID %q", line, fields[0])
		}
		if id != i {
			return nil, fmt.Errorf("setcover: line %d: set ID %d out of order (want %d)", line, id, i)
		}
		s := Set{ID: id, Elems: make([]Elem, 0, len(fields)-1)}
		for _, f := range fields[1:] {
			e, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("setcover: line %d: bad element %q", line, f)
			}
			s.Elems = append(s.Elems, Elem(e))
		}
		in.Sets = append(in.Sets, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	in.Normalize()
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}
