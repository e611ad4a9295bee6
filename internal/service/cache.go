// Content-addressed strategy cache with singleflight deduplication.
//
// Synthesis is the expensive operation the service amortizes: one solved
// game serves every later request for the same goal. The cache key is pure
// content — the model's structural hash, the purpose's extrapolation
// signature and canonical rendering, and the game mode — so equal requests
// hit regardless of which session, connection or spelling produced them.
// Singleflight collapses the thundering herd: N simultaneous requests for
// one key run exactly one fetch; the other N-1 block on the entry's ready
// channel and are counted as (joined) hits. Failed fetches (budget, bad
// purpose against this model, an unreachable peer) are not cached, so
// transient failures do not poison the key.
//
// One type serves both tiers of a daemon: flight[cacheKey, *game.Result]
// for local solves, and — on a clustered daemon — flight[peerKey,
// *peerResult] for strategies fetched from the owning peer (cluster.go).
//
// Deadline semantics: every fetch runs on its own goroutine so requesters
// can withdraw independently (get's done channel — the request deadline).
// The entry refcounts its waiters; when the LAST waiter withdraws, the
// entry's cancel channel closes and a solve aborts cooperatively
// (game.ErrCanceled). A fetch that still has waiters keeps running — the
// longest-surviving waiter's deadline governs it, so a leader hitting its
// deadline hands the solve off rather than killing it under a joiner.
// Once every waiter has withdrawn the entry is doomed: the next requester
// starts a fresh fetch in its place instead of joining. Canceled (and
// otherwise failed) fetches are evicted before their ready channel closes,
// identity-checked so a doomed entry never evicts its replacement: a
// cancel can never poison the key. A fetch that ignores its cancel channel
// (the peer tier's forward, bounded by its own timeout) and succeeds after
// all its waiters left still warms the key, unless a fresh fetch replaced
// it first. A panicking fetch is recovered into an error (counted in
// panics), evicted like any failure, and never kills the daemon.

package service

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"tigatest/internal/game"
)

// cacheKey is the content address of one synthesized strategy. Campaign
// edge-goal solves additionally carry the watched edge's identity: their
// purposes render as "traversed(<edge>)" labels rather than state
// predicates, so the ghost edge id is part of the content (and guards
// against two distinct edges ever rendering alike). Mutant-analysis solves
// carry the mutant's edit-set hash against the base model — the (base
// model hash × edit-set hash) pair addresses the mutated system without
// the service ever registering it.
type cacheKey struct {
	model   uint64 // model.System.Hash()
	sig     string // game.ExtrapolationSignature
	purpose string // canonical tctl rendering
	edge    int    // ghost-watched edge id; -1 for plain purposes
	coop    bool   // strict vs cooperative game
	edits   uint64 // model.EditSet.Hash of a mutant-analysis solve; 0 otherwise
}

// flightEntry is one cache slot; ready closes when res/err are final.
// waiters counts the requests currently blocked on ready; the last one to
// withdraw sets canceled and closes cancel, aborting the in-flight fetch.
type flightEntry[V any] struct {
	ready chan struct{}
	res   V
	err   error

	mu       sync.Mutex
	waiters  int
	canceled bool
	cancel   chan struct{}
}

// flight is the concurrent singleflight cache. Counters are atomics so the
// stats endpoint reads them without taking the map lock.
type flight[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*flightEntry[V]

	hits     atomic.Int64 // served without starting a fetch
	misses   atomic.Int64 // fetches started
	joined   atomic.Int64 // hits that waited on an in-flight fetch
	inflight atomic.Int64 // fetches currently running
	canceled atomic.Int64 // solves aborted because every waiter withdrew
	panics   atomic.Int64 // fetch panics recovered into errors
}

func newFlight[K comparable, V any]() *flight[K, V] {
	return &flight[K, V]{entries: map[K]*flightEntry[V]{}}
}

// get returns the cached value for key, running fetch at most once per
// key across any number of concurrent callers. done, when non-nil, is the
// caller's withdrawal signal (the request deadline): once it closes, get
// returns the bare ErrDeadline immediately — the fetch itself keeps
// running as long as any other waiter remains, and is canceled (via the
// cancel channel handed to fetch) when the last one withdraws. Errors of
// fetch itself are returned as they are. note, when non-nil, is told this
// caller's lookup outcome ("hit", "join" or "miss") the moment it is
// decided — purely observational (the service layer's trace spans).
// Lock order: c.mu before e.mu, never the reverse.
func (c *flight[K, V]) get(key K, done <-chan struct{}, fetch func(cancel <-chan struct{}) (V, error), note func(outcome string)) (V, error) {
	var zero V
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			select {
			case <-e.ready:
				// Completed entry: only successes stay in the map.
				c.mu.Unlock()
				c.hits.Add(1)
				if note != nil {
					note("hit")
				}
				return e.res, e.err
			default:
			}
			e.mu.Lock()
			if !e.canceled {
				// Join the in-flight fetch. Registering under e.mu means the
				// last-waiter accounting can never miss us: a concurrent
				// withdrawal either sees our registration or completes first
				// (and then canceled is set and we take the branch below).
				e.waiters++
				e.mu.Unlock()
				c.mu.Unlock()
				c.hits.Add(1)
				c.joined.Add(1)
				if note != nil {
					note("join")
				}
				res, err, withdrawn := c.await(e, done)
				if withdrawn {
					return zero, ErrDeadline
				}
				if err != nil && errors.Is(err, game.ErrCanceled) {
					// The solve lost its last waiter in the window before our
					// registration took effect. The entry is already evicted;
					// our own deadline has not fired, so retry fresh.
					continue
				}
				return res, err
			}
			// Doomed entry: every waiter withdrew, so its fetch is being
			// canceled (or, ignoring the cancel, runs on unattended).
			// Replace it — its settle() deletes only its own identity, so
			// the fresh entry is safe in the map.
			e.mu.Unlock()
		}
		e := &flightEntry[V]{ready: make(chan struct{}), cancel: make(chan struct{}), waiters: 1}
		c.entries[key] = e
		c.misses.Add(1)
		c.inflight.Add(1)
		c.mu.Unlock()
		if note != nil {
			note("miss")
		}
		go c.run(key, e, fetch)
		res, err, withdrawn := c.await(e, done)
		if withdrawn {
			return zero, ErrDeadline
		}
		return res, err
	}
}

// await blocks until the entry resolves or the caller withdraws (done
// closed, checked only after a completion re-check so a ready result always
// wins the race). withdrawn reports the latter; the last withdrawal cancels
// the in-flight fetch.
func (c *flight[K, V]) await(e *flightEntry[V], done <-chan struct{}) (res V, err error, withdrawn bool) {
	if done == nil {
		<-e.ready
		return e.res, e.err, false
	}
	select {
	case <-e.ready:
		return e.res, e.err, false
	default:
	}
	select {
	case <-e.ready:
		return e.res, e.err, false
	case <-done:
	}
	select {
	case <-e.ready:
		// Completion raced the deadline; take the result.
		return e.res, e.err, false
	default:
	}
	e.mu.Lock()
	e.waiters--
	if e.waiters == 0 && !e.canceled {
		e.canceled = true
		close(e.cancel)
	}
	e.mu.Unlock()
	return res, nil, true
}

// run runs one fetch on its own goroutine (so waiters can withdraw
// independently of it) and settles the entry. Panics are recovered into an
// error result: a malformed model, a solver bug or a bad peer payload must
// cost one request, never the daemon.
func (c *flight[K, V]) run(key K, e *flightEntry[V], fetch func(cancel <-chan struct{}) (V, error)) {
	defer func() {
		if r := recover(); r != nil {
			c.panics.Add(1)
			var zero V
			e.res, e.err = zero, fmt.Errorf("solve panicked: %v", r)
			c.settle(key, e)
		}
	}()
	e.res, e.err = fetch(e.cancel)
	c.settle(key, e)
}

// settle publishes the outcome: failed fetches — canceled ones included —
// are evicted before ready closes, so no requester can ever observe a
// poisoned completed entry; the eviction is identity-checked because a
// doomed entry may already have been replaced by a fresh one.
func (c *flight[K, V]) settle(key K, e *flightEntry[V]) {
	if e.err != nil {
		if errors.Is(e.err, game.ErrCanceled) {
			c.canceled.Add(1)
		}
		c.mu.Lock()
		if c.entries[key] == e {
			delete(c.entries, key)
		}
		c.mu.Unlock()
	}
	c.inflight.Add(-1)
	close(e.ready)
}

// size returns the number of completed-or-inflight entries.
func (c *flight[K, V]) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// stats reports the cache counters; the compiled-strategy consumption
// counters are the Service's and left zero here.
func (c *flight[K, V]) stats() CacheStats {
	return CacheStats{
		Entries:  c.size(),
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Joined:   c.joined.Load(),
		Inflight: c.inflight.Load(),
	}
}
