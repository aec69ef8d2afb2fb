package epoch

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
)

// assertStreamIdentity pins the streaming codec byte-identical to the
// materialized one: State.WriteTo and WriteSnapshot(eng) must both produce
// exactly want (= json.Marshal of the state), and ReadState must parse
// those bytes back to a state that re-serializes to them. Shared with
// FuzzEpochRoundTrip so the nightly fuzz budget hammers the identity too.
func assertStreamIdentity(t *testing.T, eng *engine.Engine, s *State, want []byte) {
	t.Helper()
	var buf bytes.Buffer
	n, err := s.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteTo diverges from json.Marshal:\n%s\n---\n%s", buf.Bytes(), want)
	}
	if eng != nil {
		buf.Reset()
		if _, err := WriteSnapshot(&buf, eng); err != nil {
			t.Fatalf("WriteSnapshot: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("WriteSnapshot diverges from json.Marshal(Snapshot()):\n%s\n---\n%s", buf.Bytes(), want)
		}
	}
	parsed, err := ReadState(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("ReadState: %v", err)
	}
	back, err := json.Marshal(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, want) {
		t.Fatalf("ReadState round trip diverges:\n%s\n---\n%s", back, want)
	}
}

// Differential: random populations (capacities, duplicate leaves, empty
// pools, rotated epochs) must stream byte-identical to the materialized
// encoding.
func TestStreamedSnapshotByteIdentity(t *testing.T) {
	grid, err := geo.NewGrid(geo.NewRect(geo.Pt(0, 0), geo.Pt(100, 100)), 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hst.Build(grid.Points(), rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	tree2, err := hst.Build(grid.Points(), rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		workers int
		caps    bool
		rotate  bool
	}{
		{"empty", 0, false, false},
		{"small", 17, false, false},
		{"capacitated", 500, true, false},
		{"large", 5000, false, false},
		{"rotated", 800, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var opts []engine.Option
			if tc.caps {
				opts = append(opts, engine.WithPolicy(engine.CapacityGreedy()))
			}
			eng, err := engine.NewWithOptions(tree, 3, opts...)
			if err != nil {
				t.Fatal(err)
			}
			src := rng.New(uint64(1000 + tc.workers))
			randCodeOf := func(tr *hst.Tree) hst.Code {
				buf := make([]byte, tr.Depth())
				for i := range buf {
					buf[i] = byte(src.Intn(tr.Degree()))
				}
				return hst.Code(buf)
			}
			for id := 0; id < tc.workers; id++ {
				c := 0
				if tc.caps {
					c = 1 + id%5
				}
				if err := eng.InsertCapEpoch(randCodeOf(tree), id, c, 0); err != nil {
					t.Fatal(err)
				}
			}
			if tc.rotate {
				err := eng.SwapEpochSeq(2, tree2, 0, func(yield func(engine.EpochInsert) bool) {
					for id := 0; id < tc.workers; id++ {
						if !yield(engine.EpochInsert{Code: randCodeOf(tree2), ID: id, Cap: 1 + id%3}) {
							return
						}
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				// The seq above draws fresh random codes per invocation —
				// fine for a one-shot test swap, but re-derive the snapshot
				// only after the swap settles.
			}
			snap := Snapshot(eng)
			want, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			assertStreamIdentity(t, eng, snap, want)
		})
	}
}

// ReadState must accept the liberties json.Unmarshal allowed: any key
// order, unknown keys, null workers — and reject a treeless document,
// trailing data and a worker code outside the tree.
func TestReadStateCompatibility(t *testing.T) {
	grid, err := geo.NewGrid(geo.NewRect(geo.Pt(0, 0), geo.Pt(100, 100)), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hst.Build(grid.Points(), rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(tree, 2)
	if err != nil {
		t.Fatal(err)
	}
	code := make([]byte, tree.Depth()) // all-zero digits are always valid
	if err := eng.Insert(hst.Code(code), 3); err != nil {
		t.Fatal(err)
	}
	canonical, err := json.Marshal(Snapshot(eng))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(canonical)
	treeJSON := doc[strings.Index(doc, `"tree":`)+len(`"tree":`) : strings.Index(doc, `,"workers"`)]
	workersJSON := doc[strings.Index(doc, `"workers":`)+len(`"workers":`) : len(doc)-1]

	reordered := `{"workers":` + workersJSON + `,"unknown":{"a":[1,2]},"tree":` + treeJSON + `,"epoch":1}`
	s, err := ReadState(strings.NewReader(reordered))
	if err != nil {
		t.Fatalf("reordered document refused: %v", err)
	}
	back, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, canonical) {
		t.Fatalf("reordered parse lost data:\n%s\n---\n%s", back, canonical)
	}

	if s, err := ReadState(strings.NewReader(`{"epoch":1,"tree":` + treeJSON + `,"workers":null}`)); err != nil || s.Workers != nil {
		t.Fatalf("null workers: s=%+v err=%v", s, err)
	}
	if _, err := ReadState(strings.NewReader(`{"epoch":1,"workers":null}`)); err == nil {
		t.Fatal("treeless document accepted")
	}
	if _, err := ReadState(strings.NewReader(doc + "garbage")); err == nil {
		t.Fatal("trailing data accepted")
	}
	if _, err := ReadState(strings.NewReader(`{"epoch":1,"tree":` + treeJSON +
		`,"workers":[{"id":9,"code":"/////w=="}]}`)); err == nil {
		t.Fatal("out-of-tree worker code accepted")
	}
}
