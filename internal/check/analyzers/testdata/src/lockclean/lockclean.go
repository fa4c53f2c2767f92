// Package lockclean exercises the same shapes internal/runner uses —
// balanced lock/unlock, defer Unlock, a lock-free helper called under a
// lock, goroutines launched under a lock, channel ops only after
// release, two locks always taken in the same order — and must draw
// zero lockorder findings.
package lockclean

import "sync"

type pool struct {
	mu   sync.Mutex
	aux  sync.Mutex
	done chan struct{}
	n    int
}

// add calls a plain helper under the lock; sum takes no lock, so the
// call adds no order edge.
func (p *pool) add(v int) {
	p.mu.Lock()
	p.n = sum(p.n, v)
	p.mu.Unlock()
}

func sum(a, b int) int { return a + b }

// wait releases the lock BEFORE blocking on the channel.
func (p *pool) wait() {
	p.mu.Lock()
	n := p.n
	p.mu.Unlock()
	if n > 0 {
		<-p.done
	}
}

func (p *pool) deferred() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}

// spawn holds the lock while STARTING the goroutine; the goroutine's
// own channel send runs with no locks held.
func (p *pool) spawn() {
	p.mu.Lock()
	go func() {
		p.done <- struct{}{}
	}()
	p.mu.Unlock()
}

// drain and reset take mu then aux in the same order: no cycle.
func (p *pool) drain() {
	p.mu.Lock()
	p.aux.Lock()
	p.n = 0
	p.aux.Unlock()
	p.mu.Unlock()
}

func (p *pool) reset() {
	p.mu.Lock()
	p.aux.Lock()
	p.n = 1
	p.aux.Unlock()
	p.mu.Unlock()
}
