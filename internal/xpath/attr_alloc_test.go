package xpath

import (
	"testing"

	"repro/internal/corpus"
)

// TestAttributeStepAllocs holds the attribute step to reading its
// owners' attributes in place: over 8,000 words, //w/@n and //w/@* cost
// a bounded number of allocations per evaluation (result growth), not
// one copy of every owner's attribute slice.
func TestAttributeStepAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("8,000-word document")
	}
	doc, err := corpus.Generate(corpus.DefaultConfig(8000))
	if err != nil {
		t.Fatal(err)
	}
	doc.Warm()
	words := len(doc.ElementsNamed("w"))
	for _, src := range []string{"//w/@n", "//w/@*"} {
		q := MustCompile(src)
		v, err := q.Eval(doc)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(v.Attrs()); n < words {
			t.Fatalf("%s: %d attributes for %d words", src, n, words)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := q.Eval(doc); err != nil {
				t.Fatal(err)
			}
		})
		if allocs >= 100 {
			t.Errorf("%s: %.0f allocations per Eval, want < 100", src, allocs)
		}
		t.Logf("%s: %d attributes, %.0f allocs/Eval", src, len(v.Attrs()), allocs)
	}
}
