package replay

// Per-module artifact cache. Every Recording embeds the module's
// canonical printed text plus its hash, a sweep builds one recording per
// job — thousands of jobs over the same handful of modules — and every
// Verify or Minimize checks the module against a recording's hash.
// Printing and hashing cost time linear in the module's text (several
// milliseconds for the largest hardened programs), while the rest of
// building a recording copies a few slices and a check replays a run of
// a few milliseconds, so the text/hash pair is computed once per module
// and reused by recordings, HashModule and CheckModule alike.
// Correctness rests on the same invariant the interpreter already
// requires: a module is immutable once runs of it have started.
//
// The cache is keyed by pointer identity and bounded: generator-driven
// soaks mint a fresh module per seed, and an unbounded map would pin
// every one of them (plus its printed text) for the life of the process.
// On overflow the whole map is dropped — the steady-state workloads
// either reuse few modules (benchmark tables, far below the cap) or
// never repeat one (generator soaks, where caching can't help anyway),
// so eviction precision is worthless and clearing is the cheapest
// correct policy.

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"conair/internal/mir"
)

type moduleArtifact struct {
	text string
	hash string
}

const artifactCacheCap = 128

var (
	artifactMu    sync.Mutex
	artifactCache = make(map[*mir.Module]moduleArtifact)
)

// artifactOf returns mod's canonical printed text and hex sha256 hash,
// memoized per module pointer. The module must not be mutated after the
// first call.
func artifactOf(mod *mir.Module) (text, hash string) {
	artifactMu.Lock()
	a, ok := artifactCache[mod]
	artifactMu.Unlock()
	if !ok {
		a.text = mir.Print(mod)
		sum := sha256.Sum256([]byte(a.text))
		a.hash = hex.EncodeToString(sum[:])
		artifactMu.Lock()
		if len(artifactCache) >= artifactCacheCap {
			clear(artifactCache)
		}
		artifactCache[mod] = a
		artifactMu.Unlock()
	}
	return a.text, a.hash
}
