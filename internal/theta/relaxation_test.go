package theta

import "testing"

// TestEngineRelaxationMatchesConcurrent: a keyed or windowed Θ sketch
// buffers exactly as a standalone Concurrent of the same configuration,
// so the engine must report the same bound r — the adaptive worst case
// 2·N·MaxAdaptiveBuffer with AdaptiveBuffering, N·b without double
// buffering — not a bare 2·N·b.
func TestEngineRelaxationMatchesConcurrent(t *testing.T) {
	for name, cfg := range map[string]ConcurrentConfig{
		"adaptive":            {K: 4096, Writers: 1, MaxError: 0.04, AdaptiveBuffering: true},
		"no double buffering": {K: 4096, Writers: 2, MaxError: 0.04, DisableDoubleBuffering: true},
	} {
		c := NewConcurrent(cfg)
		want := c.Relaxation()
		c.Close()
		if got := NewEngine(cfg).Relaxation(); got != want {
			t.Errorf("%s: engine reports r = %d, a Concurrent %d", name, got, want)
		}
	}
}
