package cluster

import (
	"fmt"
	"sort"

	"fluxpower/internal/apps"
	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/job"
	"fluxpower/internal/flux/kvs"
	"fluxpower/internal/flux/msg"
)

// InstanceApp is the jobspec App value that turns a job into a nested
// user-level Flux instance instead of an application run. This is Flux's
// defining trick (§II-B): "When a user requests a job, they are allocated
// their own user-level Flux instance, allowing them to customize the
// scheduling policy within their instance." The sub-instance gets its own
// brokers (one per allocated node), its own KVS and job manager, and the
// user may load their own power modules into it — user-level telemetry
// and power-policy customization, exactly as §I claims.
const InstanceApp = "flux"

// SubInstance is a user-level Flux instance running inside a parent job's
// allocation. Its broker ranks 0..n-1 map onto the parent job's nodes.
type SubInstance struct {
	// JobID is the parent job holding the allocation.
	JobID uint64
	// Inst is the nested broker instance; load user modules here.
	Inst *broker.Instance
	// JM submits jobs into the nested instance.
	JM *job.Client

	c       *Cluster
	ranks   []int32 // parent ranks, indexed by sub-instance rank
	running map[uint64]*runningJob
	stats   map[uint64]*JobStats
	closed  bool
}

// SpawnSubInstance submits an allocation-holding job (App = "flux") and
// boots a nested Flux instance over its nodes with the default FCFS
// scheduling. The parent job must be schedulable immediately: a queued
// allocation has no nodes to boot brokers on.
func (c *Cluster) SpawnSubInstance(spec job.Spec) (*SubInstance, error) {
	return c.SpawnSubInstanceWith(spec, job.Options{})
}

// SpawnSubInstanceWith boots a nested instance whose job manager runs
// the given scheduling options — this is how "different users can choose
// different power-aware scheduling policies within their respective
// allocations" (§I): each allocation's nested job manager carries its
// own policy and budget.
func (c *Cluster) SpawnSubInstanceWith(spec job.Spec, opts job.Options) (*SubInstance, error) {
	spec.App = InstanceApp
	if spec.Name == "" {
		spec.Name = "flux-instance"
	}
	id, err := c.JM.Submit(spec)
	if err != nil {
		return nil, err
	}
	rec, err := c.JM.Info(id)
	if err != nil {
		return nil, err
	}
	if rec.State != job.StateRun {
		// Queued: cancel to avoid a zombie allocation request.
		_ = c.JM.Cancel(id)
		return nil, fmt.Errorf("cluster: sub-instance needs %d free nodes", spec.Nodes)
	}
	ranks := append([]int32(nil), rec.Ranks...)
	inst, err := broker.NewInstance(broker.InstanceOptions{
		Size:      len(ranks),
		Scheduler: c.Sched,
		Local: func(subRank int32) any {
			return c.nodes[ranks[subRank]]
		},
	})
	if err != nil {
		_, _ = c.JM.Finish(id)
		return nil, err
	}
	if err := inst.Root().LoadModule(kvs.New()); err != nil {
		return nil, err
	}
	subRanks := make([]int32, len(ranks))
	for i := range subRanks {
		subRanks[i] = int32(i)
	}
	if opts.HW.Sockets == 0 {
		opts.HW = c.nodes[0].Config()
	}
	if err := inst.Root().LoadModule(job.NewManagerWith(subRanks, opts)); err != nil {
		return nil, err
	}
	si := &SubInstance{
		JobID:   id,
		Inst:    inst,
		JM:      job.NewClient(inst.Root()),
		c:       c,
		ranks:   ranks,
		running: make(map[uint64]*runningJob),
		stats:   make(map[uint64]*JobStats),
	}
	inst.Root().Subscribe(job.EventStart, si.onSubJobStart)
	inst.Root().Subscribe(job.EventFinish, si.onSubJobFinish)
	c.subs[id] = si
	return si, nil
}

// Submit queues a job inside the user-level instance.
func (si *SubInstance) Submit(spec job.Spec) (uint64, error) {
	if si.closed {
		return 0, fmt.Errorf("cluster: sub-instance for job %d is closed", si.JobID)
	}
	return si.JM.Submit(spec)
}

// Stats returns a sub-job's accounting.
func (si *SubInstance) Stats(id uint64) (JobStats, bool) {
	st, ok := si.stats[id]
	if !ok {
		return JobStats{}, false
	}
	return *st, true
}

// Ranks returns the parent ranks backing this instance.
func (si *SubInstance) Ranks() []int32 { return append([]int32(nil), si.ranks...) }

// Idle reports whether no sub-jobs are running or queued.
func (si *SubInstance) Idle() bool {
	if len(si.running) > 0 {
		return false
	}
	jobs, err := si.JM.List()
	if err != nil {
		return true
	}
	for _, j := range jobs {
		if j.State != job.StateInactive {
			return false
		}
	}
	return true
}

// Close tears the user-level instance down and releases the parent
// allocation. Running sub-jobs are abandoned (their nodes idle), like
// an allocation expiring.
func (si *SubInstance) Close() error {
	if si.closed {
		return nil
	}
	si.closed = true
	delete(si.c.subs, si.JobID)
	clear(si.running)
	_, err := si.c.JM.Finish(si.JobID)
	return err
}

func (si *SubInstance) onSubJobStart(ev *msg.Message) {
	var rec job.Record
	if err := ev.Unmarshal(&rec); err != nil {
		return
	}
	profile, err := apps.Lookup(rec.Spec.App)
	if err != nil {
		_, _ = si.JM.Finish(rec.ID)
		return
	}
	instance, err := apps.NewInstance(profile, si.c.arch, len(rec.Ranks),
		rec.Spec.SizeFactor, rec.Spec.RepFactor,
		si.c.cfg.Seed+int64(si.JobID)*31337+int64(rec.ID)*99991)
	if err != nil {
		_, _ = si.JM.Finish(rec.ID)
		return
	}
	st := &JobStats{
		ID:       rec.ID,
		App:      rec.Spec.App,
		Nodes:    len(rec.Ranks),
		Ranks:    append([]int32(nil), rec.Ranks...),
		StartSec: rec.StartSec,
	}
	si.stats[rec.ID] = st
	rj := &runningJob{rec: rec, instance: instance, stats: st}
	si.running[rec.ID] = rj
}

func (si *SubInstance) onSubJobFinish(ev *msg.Message) {
	var rec job.Record
	if err := ev.Unmarshal(&rec); err != nil {
		return
	}
	rj, ok := si.running[rec.ID]
	if !ok {
		return
	}
	delete(si.running, rec.ID)
	for _, subRank := range rj.rec.Ranks {
		si.c.nodes[si.ranks[subRank]].SetIdle()
	}
	st := rj.stats
	st.EndSec = rec.EndSec
	if st.sampleSec > 0 {
		st.AvgNodePowerW = st.sumPowerDt / st.sampleSec
		st.EnergyPerNodeJ = st.sumPowerDt
	}
}

// advanceSubJob moves one nested job forward by dt seconds — the same
// math as Cluster.advanceJob with sub-instance rank indirection. It
// reports whether the job completed.
func (si *SubInstance) advanceSubJob(rj *runningJob, dt float64) bool {
	c := si.c
	nodeCfg := c.nodes[si.ranks[rj.rec.Ranks[0]]].Config()
	demand := rj.instance.Demand(nodeCfg)
	jobRate := 1.0
	var avgPower float64
	for _, subRank := range rj.rec.Ranks {
		node := c.nodes[si.ranks[subRank]]
		node.SetDemand(demand)
		act := node.Actual()
		r := rj.instance.NodeRate(nodeCfg, demand, act)
		if r < jobRate {
			jobRate = r
		}
		w := measuredNodePower(node, act)
		avgPower += w
		if w > rj.stats.MaxNodePowerW {
			rj.stats.MaxNodePowerW = w
		}
	}
	avgPower /= float64(len(rj.rec.Ranks))
	rj.stats.sumPowerDt += avgPower * dt
	rj.stats.sampleSec += dt
	rj.instance.Advance(dt, jobRate)
	return rj.instance.Done()
}

// tickSubInstances advances every nested instance's running jobs by one
// tick; called from the cluster's onTick.
func (c *Cluster) tickSubInstances(dt float64) {
	if len(c.subs) == 0 {
		return
	}
	parentIDs := make([]uint64, 0, len(c.subs))
	for id := range c.subs {
		parentIDs = append(parentIDs, id)
	}
	sort.Slice(parentIDs, func(i, j int) bool { return parentIDs[i] < parentIDs[j] })
	for _, pid := range parentIDs {
		si := c.subs[pid]
		ids := make([]uint64, 0, len(si.running))
		for id := range si.running {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		var done []uint64
		for _, id := range ids {
			if si.advanceSubJob(si.running[id], dt) {
				done = append(done, id)
			}
		}
		for _, id := range done {
			_, _ = si.JM.Finish(id)
		}
	}
}
