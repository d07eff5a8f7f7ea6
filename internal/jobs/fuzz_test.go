package jobs

// Fuzz target for spec canonicalization — the trust boundary every gapd
// submission, journal replay, and CLI flag set passes through. Whatever
// JSON arrives, Canon must either reject it with an error or produce a
// fixed point: canonicalizing a canonical spec changes nothing, and the
// content hash (the job identity, the cache key, and the journal key)
// is stable across the round trip through JSON — the property journal
// recovery relies on to match replayed records to resubmitted jobs.
//
// Run with: go test ./internal/jobs/ -run=^$ -fuzz=FuzzJobSpecCanonical

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func FuzzJobSpecCanonical(f *testing.F) {
	// Seeds: the spec shapes the service and CLIs actually submit, plus
	// boundary and garbage cases.
	for _, s := range []string{
		`{"kind":"evaluate","design":{"name":"datapath","width":8,"depth":2},"methodology":{"base":"typical"},"seed":3}`,
		`{"kind":"ladder","design":{"name":"datapath","width":16,"depth":4},"seed":1}`,
		`{"kind":"sweep","design":{"name":"datapath"},"methodology":{"base":"best-practice"},"max_stages":6,"workload":"integer"}`,
		`{"kind":"evaluate","design":{"name":"cla"}}`,
		`{"kind":"EVALUATE","design":{"name":" DataPath "},"methodology":{"base":" Typical-ASIC "}}`,
		`{"kind":"evaluate","design":{"name":"datapath","width":64,"depth":16}}`,
		`{"kind":"evaluate","design":{"name":"datapath","width":-1}}`,
		`{"kind":"evaluate","design":{"name":"datapath"},"methodology":{"base":"best-practice","domino_frac":0.5}}`,
		`{"kind":"evaluate","design":{"name":"datapath"},"methodology":{"stages":-3,"skew_frac":2.5}}`,
		`{"kind":"sweep","design":{"name":"datapath"},"max_stages":-1,"workload":"nope"}`,
		`{"kind":"procvar"}`,
		`{"seed":9223372036854775807}`,
		`{}`,
		`null`,
	} {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, raw string) {
		var s Spec
		if err := json.Unmarshal([]byte(raw), &s); err != nil {
			return
		}
		c, err := s.Canon()
		if err != nil {
			return // rejection is fine; panicking is the bug
		}

		// Canon is a fixed point: canonicalizing again changes nothing.
		c2, err := c.Canon()
		if err != nil {
			t.Fatalf("canonical spec rejected on second pass: %v\nspec: %+v", err, c)
		}
		h, h2 := c.Hash(), c2.Hash()
		if h != h2 {
			t.Fatalf("hash not stable under re-canonicalization: %s vs %s", h, h2)
		}
		if len(h) != 64 || strings.Trim(h, "0123456789abcdef") != "" {
			t.Fatalf("hash %q is not 64 lowercase hex chars", h)
		}

		// The identity survives the JSON round trip the journal and the
		// HTTP API put every spec through.
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("canonical spec failed to marshal: %v", err)
		}
		var back Spec
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("canonical spec failed to unmarshal: %v", err)
		}
		if back.Hash() != h {
			t.Fatalf("hash changed across JSON round trip: %s vs %s", back.Hash(), h)
		}
	})
}

// FuzzJournalReplay feeds ReplayJournal arbitrary journal file bytes.
// Replay must never panic or error on what it reads, and every job that
// a readable record names must land in exactly one class — pending,
// stored or failed — with the pending slices kept parallel. The oracle
// is a second, plainer reading of the same lines: the set of IDs that
// carry a record replay acts on, up to the first line it cannot decode.
//
// Run with: go test ./internal/jobs/ -run=^$ -fuzz=FuzzJournalReplay
func FuzzJournalReplay(f *testing.F) {
	const spec = `{"kind":"evaluate","design":{"name":"datapath","width":8,"depth":2},"methodology":{"base":"typical-asic"},"seed":3}`
	accept := func(id string) string { return `{"op":"accept","id":"` + id + `","spec":` + spec + "}\n" }
	for _, s := range []string{
		accept("a") + `{"op":"stored","id":"a"}` + "\n" + accept("b") + accept("b") +
			accept("c") + `{"op":"fail","id":"c","error":"boom","class":"fatal"}` + "\n",
		// A torn tail: the crash landed mid-append.
		accept("a") + `{"op":"stored","id":"a`,
		// An old-format done line carrying a full result.
		accept("a") + `{"op":"done","id":"a","result":{"id":"a","kind":"evaluate","evaluation":{"shipped_mhz":1}}}` + "\n",
		// Terminal records in both orders, and an accept after a pointer.
		`{"op":"fail","id":"a"}` + "\n" + `{"op":"stored","id":"a"}` + "\n" +
			`{"op":"stored","id":"b"}` + "\n" + `{"op":"fail","id":"b"}` + "\n" + accept("b"),
		`{"op":"accept","id":"a"}` + "\n" + "null\n\r\n" + `{"op":"stored"}`,
		"",
	} {
		f.Add([]byte(s))
	}
	// An over-long line: an old done line longer than the scanner's
	// first 64 KiB buffer, between two records. A line past the 16 MiB
	// cap is TestJournalOverlongLineTruncates, not a seed, so that no
	// mutation has to write a 16 MiB journal.
	long := []byte(accept("a") + `{"op":"done","id":"b","result":"`)
	long = append(long, bytes.Repeat([]byte("x"), 64<<10)...)
	f.Add(append(long, "\"}\n"+accept("c")...))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := ReplayJournal(dir)
		if err != nil {
			t.Fatalf("replay failed: %v", err)
		}
		if len(rep.PendingAccepts) != len(rep.Pending) || len(rep.PendingIDs) != len(rep.Pending) {
			t.Fatalf("pending slices out of step: %d specs, %d accept counts, %d ids",
				len(rep.Pending), len(rep.PendingAccepts), len(rep.PendingIDs))
		}
		for i, n := range rep.PendingAccepts {
			if n < 1 {
				t.Fatalf("pending %q has %d accepts", rep.PendingIDs[i], n)
			}
		}
		class := map[string]string{}
		for _, c := range []struct {
			name string
			ids  []string
		}{{"pending", rep.PendingIDs}, {"stored", rep.StoredIDs}} {
			for _, id := range c.ids {
				if prev, dup := class[id]; dup {
					t.Fatalf("id %q is both %s and %s", id, prev, c.name)
				}
				class[id] = c.name
			}
		}

		named := map[string]bool{}
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(nil, maxJournalLine)
		for sc.Scan() {
			if len(sc.Bytes()) == 0 {
				continue
			}
			var rec JournalRecord
			if json.Unmarshal(sc.Bytes(), &rec) != nil {
				break
			}
			if rec.Op == "accept" && rec.Spec != nil || rec.Op == "stored" || rec.Op == "fail" {
				named[rec.ID] = true
			}
		}
		for id, c := range class {
			if !named[id] {
				t.Fatalf("id %q classified %s but no readable record names it", id, c)
			}
		}
		if failed := len(named) - len(class); failed != rep.Failed {
			t.Fatalf("%d named ids, %d pending or stored, so %d failed; replay counted %d",
				len(named), len(class), failed, rep.Failed)
		}
	})
}
