package broker

import (
	"fmt"
	"time"

	"fluxpower/internal/flux/transport"
	"fluxpower/internal/simtime"
)

// Instance is a fully wired set of brokers forming one Flux instance —
// the simulation equivalent of "an allocation of physical resources ...
// a set of flux-broker processes that form a TBON" (§II-B).
type Instance struct {
	Brokers []*Broker
	sched   *simtime.Scheduler
}

// InstanceOptions configures NewInstance.
type InstanceOptions struct {
	// Size is the number of brokers (= nodes).
	Size int
	// Fanout is the TBON arity; Flux defaults to 2. Zero selects 2.
	Fanout int
	// Scheduler drives time; required.
	Scheduler *simtime.Scheduler
	// Local, if set, supplies the per-node resource attached to each
	// broker (the rank's simulated hw.Node).
	Local func(rank int32) any
	// WrapLink, if set, wraps each directed link before it is attached:
	// the link carries messages from rank `from` to rank `to`. The scale
	// experiments use it to interpose transport.Counters and measure the
	// bytes crossing specific links (the root link, notably); the chaos
	// harness uses it to inject faults.
	WrapLink func(from, to int32, l transport.Link) transport.Link
	// CallTimeout bounds Call's blocking wait on every broker (default
	// DefaultCallTimeout). Ignored in simulation mode, where responses
	// resolve synchronously.
	CallTimeout time.Duration
	// Heal, if set, enables the self-healing TBON extension on every
	// broker (see heal.go) and installs a dialer so orphans can open
	// links to candidate parents at runtime. Nil keeps the topology
	// fixed, byte-identical to the pre-heal broker.
	Heal *HealConfig
}

// NewInstance builds Size brokers wired into a k-ary TBON with in-memory
// links. Message delivery is synchronous and deterministic.
func NewInstance(opts InstanceOptions) (*Instance, error) {
	if opts.Size <= 0 {
		return nil, fmt.Errorf("broker: instance size %d must be positive", opts.Size)
	}
	if opts.Scheduler == nil {
		return nil, fmt.Errorf("broker: instance requires a scheduler")
	}
	k := opts.Fanout
	if k == 0 {
		k = 2
	}
	inst := &Instance{sched: opts.Scheduler}
	for rank := int32(0); rank < int32(opts.Size); rank++ {
		var local any
		if opts.Local != nil {
			local = opts.Local(rank)
		}
		b, err := New(Options{
			Rank:        rank,
			Size:        int32(opts.Size),
			Fanout:      k,
			Clock:       opts.Scheduler,
			Timers:      opts.Scheduler,
			Local:       local,
			CallTimeout: opts.CallTimeout,
			Heal:        opts.Heal,
		})
		if err != nil {
			return nil, err
		}
		inst.Brokers = append(inst.Brokers, b)
	}
	// Wire parent-child links.
	for rank := int32(1); rank < int32(opts.Size); rank++ {
		child := inst.Brokers[rank]
		parentRank := ParentRank(rank, k)
		parent := inst.Brokers[parentRank]
		childEnd, parentEnd := transport.MemPair(child.Deliver, parent.Deliver)
		if opts.WrapLink != nil {
			childEnd = opts.WrapLink(rank, parentRank, childEnd)
			parentEnd = opts.WrapLink(parentRank, rank, parentEnd)
		}
		child.SetParent(childEnd)
		parent.AddChild(rank, parentEnd)
	}
	if opts.Heal != nil {
		// Reattach dialer: a fresh in-memory pair between orphan and
		// candidate, wrapped both ways so fault injection applies to
		// heal traffic exactly as it does to wired links.
		for rank := int32(0); rank < int32(opts.Size); rank++ {
			b := inst.Brokers[rank]
			b.SetDialer(func(to int32) (transport.Link, error) {
				if to < 0 || to >= int32(opts.Size) || to == b.Rank() {
					return nil, fmt.Errorf("broker: cannot dial rank %d from %d", to, b.Rank())
				}
				target := inst.Brokers[to]
				up, down := transport.MemPair(b.Deliver, target.Deliver)
				upL, downL := transport.Link(up), transport.Link(down)
				if opts.WrapLink != nil {
					upL = opts.WrapLink(b.Rank(), to, upL)
					downL = opts.WrapLink(to, b.Rank(), downL)
				}
				target.OfferLink(b.Rank(), downL)
				return upL, nil
			})
		}
	}
	return inst, nil
}

// Root returns the rank-0 broker — where external clients attach, the
// root-agent lives, and the cluster-level power manager runs.
func (i *Instance) Root() *Broker { return i.Brokers[0] }

// Broker returns the broker at the given rank.
func (i *Instance) Broker(rank int32) *Broker { return i.Brokers[rank] }

// Size returns the instance's broker count.
func (i *Instance) Size() int { return len(i.Brokers) }

// LoadModuleAll loads one module instance per broker, built by factory.
// This is how per-node agents (the monitor's node-agent, the manager's
// node-level-manager) are deployed.
func (i *Instance) LoadModuleAll(factory func(rank int32) Module) error {
	for rank, b := range i.Brokers {
		if err := b.LoadModule(factory(int32(rank))); err != nil {
			return fmt.Errorf("rank %d: %w", rank, err)
		}
	}
	return nil
}

// UnloadModuleAll unloads the named module from every broker that has it.
func (i *Instance) UnloadModuleAll(name string) error {
	var firstErr error
	for _, b := range i.Brokers {
		has := false
		for _, m := range b.Modules() {
			if m == name {
				has = true
				break
			}
		}
		if !has {
			continue
		}
		if err := b.UnloadModule(name); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
