package router

import (
	"encoding/json"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mergepath/internal/resilience"
	"mergepath/internal/server"
	"mergepath/internal/wire"
)

// Backend state tiers, ordered by routing preference. The router routes
// to the best available tier and only walks down when a tier is empty:
// a shedding node still answers 429 faster than a dead one times out,
// so even the worst tiers stay addressable as a last resort.
const (
	tierHealthy  = iota // polled ok, overload state healthy
	tierDegraded        // browning out: admitted but deprioritized
	tierShedding        // refusing new work with 429
	tierDraining        // graceful shutdown in progress
	tierDown            // unreachable for pollDownAfter consecutive polls
)

// pollDownAfter is how many consecutive failed health polls mark a
// backend down. One failure is forgiven (a dropped poll during a GC
// pause or listener hiccup must not divert traffic); two in a row at
// the default 250ms interval means ~500ms of silence, which is real.
const pollDownAfter = 2

// tierNames maps a tier to its /healthz and /metrics wire name.
var tierNames = [...]string{tierHealthy: "healthy", tierDegraded: "degraded", tierShedding: "shedding",
	tierDraining: "draining", tierDown: "down"}

// backend is one mergepathd node as the router sees it: its resilient
// client (per-backend breakers, retries, budget), the last polled
// health document, and cumulative traffic counters.
type backend struct {
	url    string // base URL, no trailing slash
	client *resilience.Client

	mu         sync.Mutex
	health     server.Health // last successfully polled document
	polledOnce bool
	failStreak int       // consecutive poll failures
	lastPoll   time.Time // when the last poll attempt finished

	requests atomic.Uint64 // sub- and whole requests sent
	errors   atomic.Uint64 // transport errors and 5xx/429 outcomes
}

// tier classifies the backend for routing, from its poll state.
func (b *backend) tier() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tierLocked()
}

func (b *backend) tierLocked() int {
	if !b.polledOnce || b.failStreak >= pollDownAfter {
		return tierDown
	}
	switch b.health.Status {
	case "ok", "healthy":
		return tierHealthy
	case "degraded":
		return tierDegraded
	case "shedding":
		return tierShedding
	case "draining":
		return tierDraining
	default:
		return tierDown
	}
}

// speaksWire reports whether the backend's last polled /healthz
// advertised the binary frame format. Backends that predate the wire
// protocol publish no formats list and keep getting JSON — the
// mixed-version fleet degrades per backend instead of breaking.
func (b *backend) speaksWire() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, f := range b.health.Formats {
		if f == wire.ContentType {
			return true
		}
	}
	return false
}

// load reports the backend's element backlog — the least-loaded
// routing signal. Queue depth breaks backlog ties (both zero on an
// idle node; a node with queued jobs whose sizes aren't known yet
// still reports depth).
func (b *backend) load() (backlog int64, queueDepth int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.health.Overload != nil {
		backlog = b.health.Overload.BacklogElements
	}
	return backlog, b.health.QueueDepth
}

// notePoll folds one health-poll outcome into the backend state.
func (b *backend) notePoll(h *server.Health, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lastPoll = time.Now()
	if err != nil {
		b.failStreak++
		return
	}
	b.failStreak = 0
	b.polledOnce = true
	b.health = *h
}

// registry owns the backend set and the health poller.
type registry struct {
	backends []*backend
	interval time.Duration
	hc       *http.Client
	stop     chan struct{}
	done     chan struct{}
}

func newRegistry(urls []string, interval, timeout time.Duration, mk func(u string) *resilience.Client) *registry {
	r := &registry{
		interval: interval,
		hc:       &http.Client{Timeout: timeout},
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, u := range urls {
		for len(u) > 0 && u[len(u)-1] == '/' {
			u = u[:len(u)-1]
		}
		r.backends = append(r.backends, &backend{url: u, client: mk(u)})
	}
	return r
}

// start polls every backend once synchronously (so the first request
// already routes on real state) and then keeps polling on the interval
// until close.
func (r *registry) start() {
	r.pollAll()
	go func() {
		defer close(r.done)
		t := time.NewTicker(r.interval)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				r.pollAll()
			}
		}
	}()
}

func (r *registry) close() {
	close(r.stop)
	<-r.done
}

// pollAll refreshes every backend's health concurrently and returns
// when all polls finished (bounded by the poll client's timeout).
func (r *registry) pollAll() {
	var wg sync.WaitGroup
	for _, b := range r.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			h, err := r.pollOne(b)
			b.notePoll(h, err)
		}(b)
	}
	wg.Wait()
}

// pollOne fetches one backend's /healthz. A 503 body still parses —
// that is how draining is learned — so only transport and decode
// failures count as poll errors.
func (r *registry) pollOne(b *backend) (*server.Health, error) {
	resp, err := r.hc.Get(b.url + "/healthz")
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	var h server.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, err
	}
	return &h, nil
}

// candidate is one backend with its selection signals captured at pick
// time, so a routing decision is made against one consistent view.
type candidate struct {
	b       *backend
	tier    int
	backlog int64
	depth   int
	score   uint64 // rendezvous score for the current key (whole routing only)
}

// candidates snapshots every backend's tier and load.
func (r *registry) candidates() []candidate {
	cs := make([]candidate, 0, len(r.backends))
	for _, b := range r.backends {
		t := b.tier()
		backlog, depth := b.load()
		cs = append(cs, candidate{b: b, tier: t, backlog: backlog, depth: depth})
	}
	return cs
}

// bestTier returns the candidates of the most-preferred non-empty tier
// at or below maxTier, walking down (healthy → degraded → shedding →
// draining → down) until one is populated. This is the brownout
// diversion: a degraded or shedding node simply stops being selected
// while any better node exists, instead of failing requests.
func bestTier(cs []candidate, maxTier int) []candidate {
	for t := tierHealthy; t <= maxTier; t++ {
		var out []candidate
		for _, c := range cs {
			if c.tier == t {
				out = append(out, c)
			}
		}
		if len(out) > 0 {
			return out
		}
	}
	return nil
}

// rendezvousScore is highest-random-weight hashing: each (key, backend)
// pair gets an independent pseudo-random score and the top scorer owns
// the key. Removing a backend only remaps the keys it owned; adding one
// only steals 1/n of each key space — no global reshuffle, which keeps
// any per-backend locality (warm page cache, JIT'd branch history)
// intact across membership changes.
func rendezvousScore(key uint64, backendURL string) uint64 {
	h := fnv.New64a()
	var kb [8]byte
	for i := range kb {
		kb[i] = byte(key >> (8 * i))
	}
	h.Write(kb[:])
	h.Write([]byte(backendURL))
	return h.Sum64()
}

// pickWhole selects one backend for an unsplit request: rendezvous-hash
// the request key over the best available tier, then pick the less
// loaded of the top two scorers (power-of-two-choices on the element
// backlog). exclude skips one backend (failover re-picks). preferWire
// narrows the pool to backends advertising the binary frame format —
// a preference, not a requirement: when no backend speaks it the full
// pool is used and the chosen node answers 415 itself, which is the
// honest passthrough outcome. Returns nil when no backend exists at
// all.
func (r *registry) pickWhole(key uint64, exclude *backend, preferWire bool) *backend {
	cs := r.candidates()
	if exclude != nil && len(cs) > 1 {
		kept := cs[:0]
		for _, c := range cs {
			if c.b != exclude {
				kept = append(kept, c)
			}
		}
		cs = kept
	}
	if preferWire {
		var speaking []candidate
		for _, c := range cs {
			if c.b.speaksWire() {
				speaking = append(speaking, c)
			}
		}
		if len(speaking) > 0 {
			cs = speaking
		}
	}
	pool := bestTier(cs, tierDown)
	if len(pool) == 0 {
		return nil
	}
	for i := range pool {
		pool[i].score = rendezvousScore(key, pool[i].b.url)
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i].score > pool[j].score })
	if len(pool) == 1 {
		return pool[0].b
	}
	// Least-loaded between the two rendezvous winners: affinity decides
	// the shortlist, live backlog decides the final pick, so one hot key
	// cannot pin a drowning node.
	a, b := pool[0], pool[1]
	if b.backlog < a.backlog || (b.backlog == a.backlog && b.depth < a.depth) {
		return b.b
	}
	return a.b
}

// pickScatter selects up to want backends for a scattered merge,
// ordered least-loaded first. Only healthy and degraded nodes
// participate — scattering to a shedding node would guarantee a 429 on
// a sub-request and fail the whole merge. The caller checks the count:
// fewer than two means route whole instead.
func (r *registry) pickScatter(want int) []*backend {
	pool := bestTier(r.candidates(), tierDegraded)
	// A lone healthy node must not starve a scatter that two
	// healthy+degraded nodes could serve: widen to both tiers.
	if len(pool) < 2 {
		var both []candidate
		for _, c := range r.candidates() {
			if c.tier <= tierDegraded {
				both = append(both, c)
			}
		}
		pool = both
	}
	sort.Slice(pool, func(i, j int) bool {
		if pool[i].tier != pool[j].tier {
			return pool[i].tier < pool[j].tier
		}
		if pool[i].backlog != pool[j].backlog {
			return pool[i].backlog < pool[j].backlog
		}
		return pool[i].b.url < pool[j].b.url
	})
	if want > len(pool) {
		want = len(pool)
	}
	out := make([]*backend, 0, want)
	for _, c := range pool[:want] {
		out = append(out, c.b)
	}
	return out
}
