package editor

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/document"
	"repro/internal/goddag"
	"repro/internal/validate"
)

// walkHistoryFootprint is the reference HistoryFootprint: a full walk
// of both stacks, measuring every snapshot now.
func walkHistoryFootprint(s *Session) int64 {
	var f int64
	for _, e := range s.undo {
		f += e.doc.Footprint()
	}
	for _, e := range s.redo {
		f += e.doc.Footprint()
	}
	return f
}

// TestHistoryFootprintMatchesWalk drives random session traffic —
// committed and poisoned transactions, rollbacks, empty transactions,
// direct edits that succeed or fail, undo and redo, and enough commits
// to overflow a small history limit — and holds the O(1)
// HistoryFootprint equal to a full walk of the stacks after every step.
func TestHistoryFootprintMatchesWalk(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			doc, err := corpus.Generate(corpus.DefaultConfig(60))
			if err != nil {
				t.Fatal(err)
			}
			s := NewSession(doc, validate.NewSchema(), Options{HistoryLimit: 5})
			rng := rand.New(rand.NewSource(seed))
			n := doc.Content().Len()
			span := func() document.Span {
				lo := rng.Intn(n)
				return document.NewSpan(lo, lo+1+rng.Intn(min(30, n-lo)))
			}
			anyElement := func() *goddag.Element {
				els := s.Document().Elements()
				if len(els) == 0 {
					return nil
				}
				return els[rng.Intn(len(els))]
			}
			kinds := map[string]int{}
			for step := 0; step < 300; step++ {
				var kind string
				switch rng.Intn(9) {
				case 0, 1: // committed transaction
					kind = "commit"
					tx, err := s.Begin()
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < 1+rng.Intn(3); i++ {
						if tx.Err() == nil {
							tx.InsertMarkup("edits", "e", span())
						}
					}
					if tx.Commit() != nil {
						kind = "poisoned"
					}
				case 2: // rollback
					kind = "rollback"
					tx, _ := s.Begin()
					tx.InsertMarkup("edits", "e", span())
					tx.Rollback()
				case 3: // empty transaction
					kind = "empty"
					tx, _ := s.Begin()
					tx.Commit()
				case 4: // direct edit, may fail (overlap in one hierarchy)
					kind = "direct"
					if _, err := s.InsertMarkup("flat", "f", span()); err != nil {
						kind = "direct-failed"
					}
				case 5: // direct edits that always fail
					kind = "direct-failed"
					if err := s.RemoveAttr(anyElement(), "no-such-attribute"); err == nil {
						t.Fatal("removing a missing attribute succeeded")
					}
					if err := s.InsertText(n+100, "x"); err == nil {
						t.Fatal("insert past the end succeeded")
					}
				case 6: // attribute edit
					kind = "attr"
					if el := anyElement(); el != nil {
						s.SetAttr(el, "k", fmt.Sprint(step))
					}
				case 7:
					kind = "undo"
					if s.Undo() != nil {
						kind = "undo-empty"
					}
				case 8:
					kind = "redo"
					if s.Redo() != nil {
						kind = "redo-empty"
					}
				}
				kinds[kind]++
				if got, want := s.HistoryFootprint(), walkHistoryFootprint(s); got != want {
					t.Fatalf("step %d (%s): HistoryFootprint %d, walk %d (undo %d, redo %d)",
						step, kind, got, want, len(s.undo), len(s.redo))
				}
				if len(s.undo) > 5 {
					t.Fatalf("step %d: undo stack %d past the limit", step, len(s.undo))
				}
			}
			for _, k := range []string{"commit", "poisoned", "rollback", "direct", "direct-failed", "undo", "redo"} {
				if kinds[k] == 0 {
					t.Errorf("no %q step exercised: %v", k, kinds)
				}
			}
		})
	}
}

// TestFailedEditKeepsRedo pins that a failed direct edit leaves the
// history as it was: the redo stack survives it.
func TestFailedEditKeepsRedo(t *testing.T) {
	s := newSession(t, false)
	if _, err := s.InsertMarkup("words", "w", document.NewSpan(0, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Undo(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InsertMarkup("words", "w", document.NewSpan(2, 99)); err == nil {
		t.Fatal("out-of-range insert succeeded")
	}
	if !s.CanRedo() {
		t.Fatal("a failed edit cleared the redo stack")
	}
}
