package cluster

import (
	"context"
	"sync"
)

// Inbox is a node's unbounded FIFO receive queue, shared by both
// transports: puts never block (the paper's non-blocking send/broadcast),
// Take blocks until a message is present. Its one terminal state is
// entered by Fail — shutdown, an orderly departure, a fatal handshake or
// ctrl frame — and after it:
//
//   - Put is dropped: a closed node receives nothing new;
//   - the first Fail's error is the one reported, so an orderly close
//     after a fatal error does not mask the root cause;
//   - queued messages still win, over the terminal error and over an
//     expired context alike, so nothing delivered is lost to a race.
//
// A peer's death is not terminal: transports report it in-band, as a
// KindPeerDown message.
type Inbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []Message
	err   error
}

// NewInbox returns an empty, open inbox.
func NewInbox() *Inbox {
	ib := &Inbox{}
	ib.cond = sync.NewCond(&ib.mu)
	return ib
}

// Put queues m and wakes one receiver; a no-op after Fail.
func (ib *Inbox) Put(m Message) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if ib.err != nil {
		return
	}
	ib.queue = append(ib.queue, m)
	ib.cond.Signal()
}

// Fail enters the terminal state with err (the first call wins) and wakes
// every receiver.
func (ib *Inbox) Fail(err error) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if ib.err == nil {
		ib.err = err
	}
	ib.cond.Broadcast()
}

// Take returns the next queued message. With none queued it blocks until
// one arrives, returning the terminal error once the inbox has failed and
// the context's error once ctx is done.
func (ib *Inbox) Take(ctx context.Context) (Message, error) {
	if ctx.Done() != nil {
		// Wake the wait loop below when ctx fires, under the cond's lock
		// so the wake-up cannot slip between its check and its Wait.
		defer context.AfterFunc(ctx, func() {
			ib.mu.Lock()
			ib.cond.Broadcast()
			ib.mu.Unlock()
		})()
	}
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for len(ib.queue) == 0 && ib.err == nil && ctx.Err() == nil {
		ib.cond.Wait()
	}
	if len(ib.queue) > 0 {
		m := ib.queue[0]
		ib.queue = ib.queue[1:]
		return m, nil
	}
	if ib.err != nil {
		return Message{}, ib.err
	}
	return Message{}, ctx.Err()
}
