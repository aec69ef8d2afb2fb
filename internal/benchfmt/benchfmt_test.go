package benchfmt

import (
	"os"
	"path/filepath"
	"testing"
)

func TestHistoryAppendIsAppendOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench", "history.jsonl")
	first := HistoryEntry{
		GitSHA: "aaaa", UnixTime: 100,
		Report: &Report{GitSHA: "aaaa", Workers: 7, Results: []Record{
			{Benchmark: "engine/goroutines=1", Goroutines: 1, NsPerOp: 123, TasksPerSec: 8130},
		}},
	}
	if err := AppendHistory(path, first); err != nil {
		t.Fatal(err)
	}
	second := HistoryEntry{GitSHA: "bbbb", UnixTime: 200, Report: &Report{GitSHA: "bbbb"}}
	if err := AppendHistory(path, second); err != nil {
		t.Fatal(err)
	}

	got, err := ReadHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d entries, want 2", len(got))
	}
	if got[0].GitSHA != "aaaa" || got[1].GitSHA != "bbbb" {
		t.Fatalf("entries out of order: %q, %q", got[0].GitSHA, got[1].GitSHA)
	}
	if got[0].UnixTime != 100 || got[1].UnixTime != 200 {
		t.Fatalf("timestamps lost: %d, %d", got[0].UnixTime, got[1].UnixTime)
	}
	rec, ok := got[0].Report.Find("engine/goroutines=1")
	if !ok {
		t.Fatal("snapshot row lost through the history round trip")
	}
	if rec.NsPerOp != 123 || rec.TasksPerSec != 8130 || got[0].Report.Workers != 7 {
		t.Fatalf("snapshot fields mangled: %+v (workers %d)", rec, got[0].Report.Workers)
	}
}

func TestHistorySurvivesPartialTrailingLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	if err := AppendHistory(path, HistoryEntry{GitSHA: "aaaa", UnixTime: 1}); err != nil {
		t.Fatal(err)
	}
	// A torn write (crash mid-append) leaves a partial trailing line; the
	// reader must surface a typed error, not silently drop history.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"git_sha":"bb`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := ReadHistory(path); err == nil {
		t.Fatal("truncated history read back without error")
	}
}
