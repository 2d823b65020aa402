package scenario

import (
	"strings"
	"testing"

	"oceanstore/internal/archive"
)

// TestCheckAnswersNamesTheLostArchive: every fragment of one archive
// rots, past what any repair could rebuild from.  The answers check
// reports exactly that archive, and nothing on an untouched world.
func TestCheckAnswersNamesTheLostArchive(t *testing.T) {
	w := newArchWorld(Options{Seed: 5}, 16, 4, 3)
	var clean Result
	w.checkAnswers(&clean)
	if len(clean.Violations) != 0 {
		t.Fatalf("untouched archives: %v", clean.Violations)
	}
	lost := w.roots[1]
	rotted := 0
	for _, h := range w.svc.HoldersOf(lost) {
		for _, idx := range archive.HeldIndexes(w.svc.Store(h), lost) {
			if w.svc.CorruptFragment(h, lost, idx) {
				rotted++
			}
		}
	}
	if rotted != w.cfg.TotalFragments {
		t.Fatalf("rotted %d fragments, want all %d", rotted, w.cfg.TotalFragments)
	}
	var r Result
	w.checkAnswers(&r)
	if len(r.Violations) != 1 || !strings.Contains(r.Violations[0], lost.Short()) {
		t.Fatalf("violations %q, want exactly one naming archive %s", r.Violations, lost.Short())
	}
}
