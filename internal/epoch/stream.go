package epoch

import (
	"bufio"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/hst"
)

// Streaming snapshot codec. A 10M-worker snapshot is hundreds of megabytes
// of JSON; materializing it as one json.Marshal allocation (and parsing it
// back from one blob) doubles the deployment's peak memory exactly at
// persistence time. WriteTo/WriteSnapshot emit the document through an
// io.Writer with O(1) encoder state, and ReadState decodes worker entries
// one token at a time off an io.Reader. The wire format is pinned
// byte-identical to the materialized encoder (json.Marshal of State) by
// differential test and by the FuzzEpochRoundTrip harness: a snapshot
// written by either path restores through either parser.

// WriteTo streams the canonical snapshot document — the exact bytes
// json.Marshal of the State would produce — without materializing it. It
// implements io.WriterTo.
func (s *State) WriteTo(w io.Writer) (int64, error) {
	return writeState(w, s.Epoch, s.Tree, s.Workers != nil, len(s.Workers), func(i int) (int, []byte, int) {
		e := &s.Workers[i]
		return e.ID, e.Code, e.Cap
	})
}

// WriteSnapshot captures the engine's current epoch straight onto w,
// producing the exact bytes json.Marshal(Snapshot(eng)) would — without ever
// holding the worker list as a []WorkerEntry. The population is gathered
// into one contiguous code slab plus fixed-width entry records (sorted by
// id for determinism), so the transient cost is one compact copy of the
// codes, not a JSON document plus per-entry allocations. The caller must
// have quiesced writers, exactly as for Snapshot.
func WriteSnapshot(w io.Writer, eng *engine.Engine) (int64, error) {
	type entry struct{ id, cap, off int32 } // off: the code's start in the slab
	var entries []entry
	var slab []byte
	eng.WalkCap(func(code hst.Code, id, capacity int) {
		entries = append(entries, entry{id: int32(id), cap: int32(capacity), off: int32(len(slab))})
		slab = append(slab, code...)
	})
	sort.Slice(entries, func(a, b int) bool { return entries[a].id < entries[b].id })
	depth := eng.Tree().Depth()
	return writeState(w, eng.Epoch(), eng.Tree(), entries != nil, len(entries), func(i int) (int, []byte, int) {
		e := entries[i]
		return int(e.id), slab[e.off:][:depth], int(e.cap)
	})
}

// writeState emits the document for both writers: the head, then the n
// workers the callback yields — or null for a nil list, which is what
// Snapshot leaves for an empty population and how json.Marshal writes it.
// A bufio.Writer's error is sticky, so Flush reports whatever went wrong.
func writeState(w io.Writer, epoch int64, tree *hst.Tree, list bool, n int, worker func(i int) (id int, code []byte, cap int)) (int64, error) {
	// The tree's published form is the leaf permutation and parameters, not
	// the population: marshalling it costs O(tree), not O(workers).
	tb, err := json.Marshal(tree)
	if err != nil {
		return 0, err
	}
	cw := &countingWriter{w: w}
	bw := bufio.NewWriterSize(cw, 1<<16)
	fmt.Fprintf(bw, `{"epoch":%d,"tree":%s,"workers":`, epoch, tb)
	if list {
		bw.WriteByte('[')
		var scratch []byte
		for i := 0; i < n; i++ {
			id, code, cap := worker(i)
			scratch = appendWorker(scratch[:0], i > 0, id, code, cap)
			if _, err := bw.Write(scratch); err != nil {
				return cw.n, err // no point encoding the rest
			}
		}
		bw.WriteString("]}")
	} else {
		bw.WriteString("null}")
	}
	err = bw.Flush()
	return cw.n, err
}

// appendWorker appends one worker entry's JSON. Base64's standard alphabet
// contains none of the characters encoding/json escapes, so hand-encoding
// here is byte-identical to json.Marshal of a WorkerEntry.
func appendWorker(dst []byte, comma bool, id int, code []byte, cap int) []byte {
	if comma {
		dst = append(dst, ',')
	}
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, int64(id), 10)
	dst = append(dst, `,"code":"`...)
	n := base64.StdEncoding.EncodedLen(len(code))
	off := len(dst)
	dst = append(dst, make([]byte, n)...)
	base64.StdEncoding.Encode(dst[off:], code)
	dst = append(dst, '"')
	if cap > 1 {
		dst = append(dst, `,"cap":`...)
		dst = strconv.AppendInt(dst, int64(cap), 10)
	}
	return append(dst, '}')
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// ReadState reconstructs a snapshot from its JSON form, decoding worker
// entries one at a time instead of buffering the whole document. It
// accepts any key order and skips unknown keys (the same liberality
// json.Unmarshal gives) and rejects trailing data after the document.
func ReadState(r io.Reader) (*State, error) {
	dec := json.NewDecoder(r)
	s, err := decodeState(dec)
	if err != nil {
		return nil, fmt.Errorf("epoch: parse state: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("epoch: parse state: trailing data after document")
	}
	if s.Tree == nil {
		return nil, fmt.Errorf("epoch: state has no tree")
	}
	for _, w := range s.Workers {
		if err := s.Tree.CheckCode(hst.Code(w.Code)); err != nil {
			return nil, fmt.Errorf("epoch: state worker %d: %w", w.ID, err)
		}
	}
	return s, nil
}

func decodeState(dec *json.Decoder) (*State, error) {
	tok, err := dec.Token()
	if err != nil {
		return nil, err
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return nil, fmt.Errorf("expected object, got %v", tok)
	}
	s := &State{}
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		key, _ := keyTok.(string)
		switch key {
		case "epoch":
			if err := dec.Decode(&s.Epoch); err != nil {
				return nil, fmt.Errorf("epoch field: %w", err)
			}
		case "tree":
			if err := dec.Decode(&s.Tree); err != nil {
				return nil, fmt.Errorf("tree field: %w", err)
			}
		case "workers":
			if err := decodeWorkers(dec, s); err != nil {
				return nil, err
			}
		default:
			if err := skipValue(dec); err != nil {
				return nil, err
			}
		}
	}
	if _, err := dec.Token(); err != nil { // consume '}'
		return nil, err
	}
	return s, nil
}

func decodeWorkers(dec *json.Decoder, s *State) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if tok == nil {
		return nil // "workers":null — the empty-population form
	}
	if d, ok := tok.(json.Delim); !ok || d != '[' {
		return fmt.Errorf("workers field: expected array, got %v", tok)
	}
	for dec.More() {
		var w WorkerEntry
		if err := dec.Decode(&w); err != nil {
			return fmt.Errorf("worker entry %d: %w", len(s.Workers), err)
		}
		s.Workers = append(s.Workers, w)
	}
	_, err = dec.Token() // consume ']'
	return err
}

// skipValue consumes one JSON value of any shape.
func skipValue(dec *json.Decoder) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	d, ok := tok.(json.Delim)
	if !ok || (d != '{' && d != '[') {
		return nil
	}
	depth := 1
	for depth > 0 {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		if d, ok := tok.(json.Delim); ok {
			switch d {
			case '{', '[':
				depth++
			case '}', ']':
				depth--
			}
		}
	}
	return nil
}
