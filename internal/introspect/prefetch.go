package introspect

import (
	"sort"

	"oceanstore/internal/guid"
)

// Prefetcher is the introspective prefetching mechanism of §5: an
// order-k Markov predictor over object-access sequences, in the spirit
// of file-access prediction work the paper cites [20, 27, 28].  The
// prototype's evaluation found it "correctly captured high-order
// correlations, even in the presence of noise" — experiment E7
// reproduces that claim by sweeping noise against prediction accuracy.
//
// Prediction backs off PPM-style: the longest matching context wins;
// unseen contexts fall back to shorter ones, down to the order-0
// (global frequency) model.
type Prefetcher struct {
	order   int
	history []guid.GUID
	// models[k] maps a k-length context (concatenated GUIDs) to counts
	// of the next object.
	models []map[string]map[guid.GUID]float64
}

// NewPrefetcher creates a predictor using contexts up to the given
// order (k >= 0).
func NewPrefetcher(order int) *Prefetcher {
	if order < 0 {
		order = 0
	}
	p := &Prefetcher{order: order, models: make([]map[string]map[guid.GUID]float64, order+1)}
	for i := range p.models {
		p.models[i] = make(map[string]map[guid.GUID]float64)
	}
	return p
}

func ctxKey(hist []guid.GUID) string {
	b := make([]byte, 0, len(hist)*guid.Size)
	for _, g := range hist {
		b = append(b, g[:]...)
	}
	return string(b)
}

// Access trains the predictor with the next observed access.
func (p *Prefetcher) Access(obj guid.GUID) {
	for k := 0; k <= p.order && k <= len(p.history); k++ {
		ctx := ctxKey(p.history[len(p.history)-k:])
		m := p.models[k][ctx]
		if m == nil {
			m = make(map[guid.GUID]float64)
			p.models[k][ctx] = m
		}
		m[obj]++
	}
	p.history = append(p.history, obj)
	if len(p.history) > p.order {
		p.history = p.history[1:]
	}
}

// Predict returns up to n most likely next objects given the current
// history, longest-context first with PPM-style fallback.
func (p *Prefetcher) Predict(n int) []guid.GUID {
	if n < 1 {
		return nil
	}
	seen := make(map[guid.GUID]bool)
	var out []guid.GUID
	for k := min(p.order, len(p.history)); k >= 0 && len(out) < n; k-- {
		ctx := ctxKey(p.history[len(p.history)-k:])
		m := p.models[k][ctx]
		if len(m) == 0 {
			continue
		}
		type cand struct {
			g guid.GUID
			w float64
		}
		cands := make([]cand, 0, len(m))
		for g, w := range m {
			cands = append(cands, cand{g, w})
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].w != cands[j].w {
				return cands[i].w > cands[j].w
			}
			return cands[i].g.Compare(cands[j].g) < 0
		})
		for _, c := range cands {
			if len(out) >= n {
				break
			}
			if !seen[c.g] {
				seen[c.g] = true
				out = append(out, c.g)
			}
		}
	}
	return out
}

// HitRate measures prediction accuracy over a trace: for each access,
// the predictor guesses n objects before seeing it, then trains.  The
// returned fraction is hits/total (after a small warmup).
func HitRate(p *Prefetcher, trace []guid.GUID, n, warmup int) float64 {
	hits, total := 0, 0
	for i, obj := range trace {
		if i >= warmup {
			total++
			for _, g := range p.Predict(n) {
				if g == obj {
					hits++
					break
				}
			}
		}
		p.Access(obj)
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}
