package fireworks

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"matproj/internal/datastore"
	"matproj/internal/document"
	"matproj/internal/obs"
)

// Collection names: execution state lives in engines, full results in
// tasks (§III-B2).
const (
	EnginesCollection = "engines"
	TasksCollection   = "tasks"
)

// ErrNoneReady is returned by Claim when no firework is claimable.
var ErrNoneReady = errors.New("fireworks: no ready firework")

var fwCounter atomic.Uint64
var wfCounter atomic.Uint64

func nextFWID() string { return fmt.Sprintf("fw-%08d", fwCounter.Add(1)) }
func nextWFID() string { return fmt.Sprintf("wf-%08d", wfCounter.Add(1)) }

// LaunchPad manages workflow state in the datastore. It is safe for
// concurrent use by multiple workers.
type LaunchPad struct {
	store     *datastore.Store
	engines   *datastore.Collection
	tasks     *datastore.Collection
	fuses     map[string]Fuse
	analyzers map[string]Analyzer
	maxReruns int

	// Lease machinery (see lease.go). leaseMu guards the three fields.
	leaseMu     sync.Mutex
	clock       func() float64
	leaseSecs   float64
	backoffBase float64

	// obsReg, when set, receives workflow-tier counters (claims,
	// completions, fizzles, lease renewals/losses) and the ready-queue
	// depth gauge.
	obsReg atomic.Pointer[obs.Registry]
}

// Observe wires the launchpad into a metrics registry (nil disables).
func (lp *LaunchPad) Observe(reg *obs.Registry) {
	lp.obsReg.Store(reg)
}

// count increments a fireworks.* counter when a registry is wired.
func (lp *LaunchPad) count(name string) {
	lp.obsReg.Load().Counter("fireworks." + name).Inc()
}

// gaugeQueueDepth refreshes the claimable-queue depth gauge. Costs one
// count query, so it is only taken when a registry is wired and only at
// natural sweep points (workflow add, lost-run sweeps).
func (lp *LaunchPad) gaugeQueueDepth() {
	reg := lp.obsReg.Load()
	if reg == nil {
		return
	}
	reg.Gauge("fireworks.ready_depth").Set(int64(lp.ReadyCount()))
}

// NewLaunchPad wires a launchpad to a store. maxReruns bounds automatic
// re-queues per firework before the workflow is defused (default 3 when
// <= 0).
func NewLaunchPad(store *datastore.Store, maxReruns int) *LaunchPad {
	if maxReruns <= 0 {
		maxReruns = 3
	}
	lp := &LaunchPad{
		store:       store,
		engines:     store.C(EnginesCollection),
		tasks:       store.C(TasksCollection),
		fuses:       map[string]Fuse{"": DefaultFuse{}, "default": DefaultFuse{}, "approval": ApprovalFuse{}},
		analyzers:   map[string]Analyzer{},
		maxReruns:   maxReruns,
		clock:       wallClock,
		leaseSecs:   defaultLeaseSecs,
		backoffBase: defaultBackoffBase,
	}
	lp.engines.EnsureOrderedIndex("state")
	lp.engines.EnsureOrderedIndex("wf_id")
	lp.tasks.EnsureOrderedIndex("binder_key")
	lp.tasks.EnsureOrderedIndex("fw_id")
	return lp
}

// RegisterFuse installs a named fuse implementation.
func (lp *LaunchPad) RegisterFuse(name string, f Fuse) { lp.fuses[name] = f }

// RegisterAnalyzer installs a named analyzer implementation.
func (lp *LaunchPad) RegisterAnalyzer(name string, a Analyzer) { lp.analyzers[name] = a }

// Store exposes the underlying datastore (read-only use expected).
func (lp *LaunchPad) Store() *datastore.Store { return lp.store }

// AddWorkflow registers a set of fireworks as one workflow and returns
// the workflow id. Parent references must stay within the set (or name
// already-existing fireworks). Roots whose fuses are satisfied become
// READY immediately.
func (lp *LaunchPad) AddWorkflow(fws []Firework) (string, error) {
	if len(fws) == 0 {
		return "", fmt.Errorf("fireworks: empty workflow")
	}
	wfID := nextWFID()
	ids := make(map[string]bool, len(fws))
	for i := range fws {
		if fws[i].ID == "" {
			fws[i].ID = nextFWID()
		}
		if ids[fws[i].ID] {
			return "", fmt.Errorf("fireworks: duplicate firework id %q", fws[i].ID)
		}
		ids[fws[i].ID] = true
	}
	for _, fw := range fws {
		if _, ok := lp.fuses[fw.Fuse]; !ok {
			return "", fmt.Errorf("fireworks: unknown fuse %q", fw.Fuse)
		}
		if fw.Analyzer != "" {
			if _, ok := lp.analyzers[fw.Analyzer]; !ok {
				return "", fmt.Errorf("fireworks: unknown analyzer %q", fw.Analyzer)
			}
		}
		for _, p := range fw.Parents {
			if !ids[p] {
				if _, err := lp.engines.FindID(p); err != nil {
					return "", fmt.Errorf("fireworks: firework %q references unknown parent %q", fw.ID, p)
				}
			}
		}
	}
	for _, fw := range fws {
		parents := make([]any, len(fw.Parents))
		for i, p := range fw.Parents {
			parents[i] = p
		}
		doc := document.D{
			"_id":          fw.ID,
			"wf_id":        wfID,
			"state":        string(StateWaiting),
			"stage":        map[string]any(document.NormalizeDoc(fw.Stage)),
			"parents":      parents,
			"fuse":         fw.Fuse,
			"analyzer":     fw.Analyzer,
			"priority":     int64(fw.Priority),
			"launches":     int64(0),
			"reruns":       int64(0),
			"spec_history": []any{},
		}
		if fw.Binder != nil {
			fields := make([]any, len(fw.Binder.Fields))
			for i, f := range fw.Binder.Fields {
				fields[i] = f
			}
			doc["binder_fields"] = fields
			doc["binder_key"] = fw.Binder.Key(document.NormalizeDoc(fw.Stage))
		}
		if _, err := lp.engines.Insert(doc); err != nil {
			return "", err
		}
	}
	for _, fw := range fws {
		if err := lp.Refresh(fw.ID); err != nil {
			return "", err
		}
	}
	if reg := lp.obsReg.Load(); reg != nil {
		reg.Counter("fireworks.added").Add(uint64(len(fws)))
	}
	lp.gaugeQueueDepth()
	return wfID, nil
}

// Refresh re-evaluates a WAITING firework's readiness: all parents
// COMPLETED and the fuse satisfied promotes it to READY.
func (lp *LaunchPad) Refresh(fwID string) error {
	fw, err := lp.engines.FindID(fwID)
	if err != nil {
		return err
	}
	if State(fw.GetString("state")) != StateWaiting {
		return nil
	}
	parents, err := lp.parentDocs(fw)
	if err != nil {
		return err
	}
	for _, p := range parents {
		if State(p.GetString("state")) != StateCompleted {
			return nil
		}
	}
	fuse := lp.fuses[fw.GetString("fuse")]
	if fuse == nil || !fuse.Ready(fw, parents) {
		return nil
	}
	_, err = lp.engines.UpdateOne(
		document.D{"_id": fwID, "state": string(StateWaiting)},
		document.D{"$set": document.D{"state": string(StateReady)}})
	return err
}

func (lp *LaunchPad) parentDocs(fw document.D) ([]document.D, error) {
	var out []document.D
	for _, p := range fw.GetArray("parents") {
		id, _ := p.(string)
		doc, err := lp.engines.FindID(id)
		if err != nil {
			return nil, fmt.Errorf("fireworks: parent %q: %w", id, err)
		}
		out = append(out, doc)
	}
	return out, nil
}

// Approve sets the approval flag consumed by ApprovalFuse and refreshes.
func (lp *LaunchPad) Approve(fwID string) error {
	if _, err := lp.engines.UpdateOne(
		document.D{"_id": fwID},
		document.D{"$set": document.D{"approved": true}}); err != nil {
		return err
	}
	return lp.Refresh(fwID)
}

// Claimed is a firework handed to a worker.
type Claimed struct {
	FWID  string
	Stage document.D // stage after fuse overrides
	Doc   document.D // full firework document at claim time
}

// Claim atomically takes the highest-priority READY firework for a
// worker, applying duplicate detection and fuse overrides. Fireworks
// whose binder key already has a successful task are completed with a
// pointer to the previous result and skipped ("replace the execution of
// duplicate jobs with a pointer"). Selector, when non-nil, further
// filters claimable fireworks — this is the paper's resource matching
// via queries on the input attributes, e.g.
// {"stage.nelectrons": {"$lte": 200}}.
func (lp *LaunchPad) Claim(workerID string, selector document.D) (*Claimed, error) {
	for {
		now := lp.now()
		leaseSecs, _ := lp.leaseParams()
		filter := claimableFilter(now)
		for k, v := range document.NormalizeDoc(selector) {
			filter[k] = v
		}
		fw, err := lp.engines.FindAndModify(filter,
			document.D{"$set": document.D{
				"state":         string(StateRunning),
				"worker":        workerID,
				"claimed_at_s":  now,
				"heartbeat_s":   now,
				"lease_until_s": now + leaseSecs,
			},
				"$inc": document.D{"launches": 1}},
			[]string{"-priority", "_id"}, true)
		if errors.Is(err, datastore.ErrNotFound) {
			return nil, ErrNoneReady
		}
		if err != nil {
			return nil, err
		}
		fwID := fw["_id"].(string)

		lp.count("claims")

		// Duplicate detection.
		if key := fw.GetString("binder_key"); key != "" {
			prior, err := lp.tasks.FindOne(document.D{"binder_key": key, "state": "successful"}, nil)
			if err == nil {
				if err := lp.completeWithPointer(fwID, prior["_id"].(string)); err != nil {
					return nil, err
				}
				lp.count("duplicates_skipped")
				continue // claim the next one
			}
			if !errors.Is(err, datastore.ErrNotFound) {
				return nil, err
			}
		}

		// Fuse override, recorded in spec_history.
		fuse := lp.fuses[fw.GetString("fuse")]
		stage := fw.GetDoc("stage").Copy()
		if fuse != nil {
			parents, err := lp.parentDocs(fw)
			if err != nil {
				return nil, err
			}
			if upd := fuse.Override(fw, parents); len(upd) > 0 {
				if err := lp.applyStageUpdate(fwID, upd, "fuse override"); err != nil {
					return nil, err
				}
				refreshed, err := lp.engines.FindID(fwID)
				if err != nil {
					return nil, err
				}
				fw = refreshed
				stage = fw.GetDoc("stage").Copy()
			}
		}
		return &Claimed{FWID: fwID, Stage: stage, Doc: fw}, nil
	}
}

// applyStageUpdate applies a Mongo-style update to the embedded stage and
// appends it to spec_history ("modifications returned by the Fuse ...
// stored within the FireWorks database for later analysis").
func (lp *LaunchPad) applyStageUpdate(fwID string, upd document.D, why string) error {
	// Rewrite paths to live under "stage." for operator updates.
	rewritten := document.D{}
	for op, body := range upd {
		m, ok := body.(map[string]any)
		if !ok {
			if d, isD := body.(document.D); isD {
				m = map[string]any(d)
				ok = true
			}
		}
		if !ok {
			return fmt.Errorf("fireworks: stage update %s must map fields to values", op)
		}
		nb := document.D{}
		for field, v := range m {
			nb["stage."+field] = v
		}
		rewritten[op] = map[string]any(nb)
	}
	histEntry := map[string]any{"why": why, "update": map[string]any(document.NormalizeDoc(upd))}
	rewritten["$push"] = mergePush(rewritten["$push"], histEntry)
	if _, err := lp.engines.UpdateOne(document.D{"_id": fwID}, rewritten); err != nil {
		return err
	}
	// Recompute binder key against the new stage.
	return lp.recomputeBinderKey(fwID)
}

func mergePush(existing any, histEntry map[string]any) map[string]any {
	out := map[string]any{}
	if m, ok := existing.(map[string]any); ok {
		for k, v := range m {
			out[k] = v
		}
	}
	out["spec_history"] = histEntry
	return out
}

func (lp *LaunchPad) recomputeBinderKey(fwID string) error {
	fw, err := lp.engines.FindID(fwID)
	if err != nil {
		return err
	}
	fields := fw.GetArray("binder_fields")
	if len(fields) == 0 {
		return nil
	}
	b := &Binder{}
	for _, f := range fields {
		if s, ok := f.(string); ok {
			b.Fields = append(b.Fields, s)
		}
	}
	_, err = lp.engines.UpdateOne(document.D{"_id": fwID},
		document.D{"$set": document.D{"binder_key": b.Key(fw.GetDoc("stage"))}})
	return err
}

// completeWithPointer finishes a firework by pointing at an existing
// task's result instead of executing.
func (lp *LaunchPad) completeWithPointer(fwID, taskID string) error {
	if _, err := lp.engines.UpdateOne(document.D{"_id": fwID},
		document.D{"$set": document.D{
			"state":  string(StateCompleted),
			"output": map[string]any{"duplicate_of": taskID},
		}}); err != nil {
		return err
	}
	return lp.onCompleted(fwID)
}

// Complete reports a finished launch. The outcome's result document is
// stored whole in tasks; the firework keeps only control-logic outputs.
// The analyzer (if any) then decides follow-up actions.
func (lp *LaunchPad) Complete(cl *Claimed, outcome *RunOutcome) error {
	fw, err := lp.engines.FindID(cl.FWID)
	if err != nil {
		return err
	}
	taskState := "successful"
	if outcome.Failed {
		taskState = "failed"
		lp.count("runs_failed")
	} else {
		lp.count("runs_completed")
	}
	taskDoc := document.D{
		"fw_id":      cl.FWID,
		"wf_id":      fw.GetString("wf_id"),
		"state":      taskState,
		"failure":    outcome.FailureKind,
		"stage":      map[string]any(cl.Stage.Copy()),
		"runtime_s":  outcome.Duration.Seconds(),
		"binder_key": fw.GetString("binder_key"),
	}
	if outcome.Result != nil {
		taskDoc["result"] = map[string]any(outcome.Result.Copy())
	}
	taskID, err := lp.tasks.Insert(taskDoc)
	if err != nil {
		return err
	}

	// Control-logic output summary on the firework itself.
	output := document.D{"task_id": taskID, "failure": outcome.FailureKind}
	if outcome.Result != nil {
		if v, ok := outcome.Result.Get("final_energy"); ok {
			output["final_energy"] = v
		}
		if v, ok := outcome.Result.Get("converged"); ok {
			output["converged"] = v
		}
	}
	if _, err := lp.engines.UpdateOne(document.D{"_id": cl.FWID},
		document.D{"$set": document.D{"output": map[string]any(output)}}); err != nil {
		return err
	}

	return lp.analyzeAndSettle(cl.FWID, fw, outcome, taskID)
}

// Killed reports a launch that died without output (walltime/machine
// failure). The analyzer decides whether to re-run.
func (lp *LaunchPad) Killed(cl *Claimed, kind string) error {
	return lp.Complete(cl, &RunOutcome{Failed: true, FailureKind: kind})
}

func (lp *LaunchPad) analyzeAndSettle(fwID string, fw document.D, outcome *RunOutcome, taskID string) error {
	var actions []Action
	if name := fw.GetString("analyzer"); name != "" {
		if an := lp.analyzers[name]; an != nil {
			fresh, err := lp.engines.FindID(fwID)
			if err != nil {
				return err
			}
			var resultDoc document.D
			if outcome.Result != nil {
				resultDoc = outcome.Result
			}
			actions = an.Analyze(fresh, resultDoc)
		}
	}
	if len(actions) == 0 {
		if outcome.Failed {
			// No automated repair available.
			return lp.defuse(fwID, "unhandled failure: "+outcome.FailureKind)
		}
		return lp.markCompleted(fwID)
	}
	for _, a := range actions {
		switch act := a.(type) {
		case Rerun:
			if err := lp.rerun(fwID, act); err != nil {
				return err
			}
		case Detour:
			if err := lp.detour(fwID, act); err != nil {
				return err
			}
		case AddFirework:
			if err := lp.addChild(fwID, fw.GetString("wf_id"), act.Firework); err != nil {
				return err
			}
			if err := lp.markCompleted(fwID); err != nil {
				return err
			}
		case Defuse:
			if err := lp.defuse(fwID, act.Reason); err != nil {
				return err
			}
		default:
			return fmt.Errorf("fireworks: unknown action %T", a)
		}
	}
	_ = taskID
	return nil
}

// markCompleted finalizes a firework and unblocks dependents (children
// and, for detours, the original firework's dependents).
func (lp *LaunchPad) markCompleted(fwID string) error {
	if _, err := lp.engines.UpdateOne(document.D{"_id": fwID},
		document.D{"$set": document.D{"state": string(StateCompleted)}}); err != nil {
		return err
	}
	lp.count("completed")
	return lp.onCompleted(fwID)
}

func (lp *LaunchPad) onCompleted(fwID string) error {
	fw, err := lp.engines.FindID(fwID)
	if err != nil {
		return err
	}
	// A completed detour completes its original, so the rest of the
	// workflow "should be the same".
	if orig := fw.GetString("detour_of"); orig != "" {
		if _, err := lp.engines.UpdateOne(
			document.D{"_id": orig},
			document.D{"$set": document.D{
				"state":  string(StateCompleted),
				"output": map[string]any{"detoured_to": fwID, "task_id": fw.GetString("output.task_id")},
			}}); err != nil {
			return err
		}
		if err := lp.onCompleted(orig); err != nil {
			return err
		}
	}
	children, err := lp.engines.FindAll(document.D{"parents": fwID, "state": string(StateWaiting)}, nil)
	if err != nil {
		return err
	}
	for _, child := range children {
		if err := lp.Refresh(child["_id"].(string)); err != nil {
			return err
		}
	}
	return nil
}

func (lp *LaunchPad) rerun(fwID string, act Rerun) error {
	fw, err := lp.engines.FindID(fwID)
	if err != nil {
		return err
	}
	reruns, _ := fw.GetInt("reruns")
	if int(reruns) >= lp.maxReruns {
		return lp.defuse(fwID, fmt.Sprintf("rerun limit (%d) exhausted: %s", lp.maxReruns, act.Reason))
	}
	if act.StageUpdate != nil {
		if err := lp.applyStageUpdate(fwID, act.StageUpdate, "rerun: "+act.Reason); err != nil {
			return err
		}
	}
	if act.WalltimeScale > 0 {
		if cur, ok := fw.GetFloat("stage.walltime_s"); ok {
			if err := lp.applyStageUpdate(fwID,
				document.D{"$set": document.D{"walltime_s": cur * act.WalltimeScale}},
				"rerun walltime scale: "+act.Reason); err != nil {
				return err
			}
		}
	}
	lp.count("reruns")
	_, err = lp.engines.UpdateOne(document.D{"_id": fwID},
		document.D{"$set": document.D{"state": string(StateReady)},
			"$inc": document.D{"reruns": 1}})
	return err
}

func (lp *LaunchPad) detour(fwID string, act Detour) error {
	fw, err := lp.engines.FindID(fwID)
	if err != nil {
		return err
	}
	newID := nextFWID()
	doc := fw.Copy()
	doc["_id"] = newID
	doc["state"] = string(StateWaiting)
	doc["detour_of"] = fwID
	doc["launches"] = int64(0)
	doc["reruns"] = int64(0)
	doc["spec_history"] = []any{}
	delete(doc, "output")
	delete(doc, "worker")
	if _, err := lp.engines.Insert(doc); err != nil {
		return err
	}
	if act.StageUpdate != nil {
		if err := lp.applyStageUpdate(newID, act.StageUpdate, "detour: "+act.Reason); err != nil {
			return err
		}
	}
	if _, err := lp.engines.UpdateOne(document.D{"_id": fwID},
		document.D{"$set": document.D{"state": string(StateFizzled), "superseded_by": newID}}); err != nil {
		return err
	}
	lp.count("fizzled")
	lp.count("detours")
	return lp.Refresh(newID)
}

func (lp *LaunchPad) addChild(parentID, wfID string, fw Firework) error {
	if fw.ID == "" {
		fw.ID = nextFWID()
	}
	hasParent := false
	for _, p := range fw.Parents {
		if p == parentID {
			hasParent = true
		}
	}
	if !hasParent {
		fw.Parents = append(fw.Parents, parentID)
	}
	parents := make([]any, len(fw.Parents))
	for i, p := range fw.Parents {
		parents[i] = p
	}
	doc := document.D{
		"_id":          fw.ID,
		"wf_id":        wfID,
		"state":        string(StateWaiting),
		"stage":        map[string]any(document.NormalizeDoc(fw.Stage)),
		"parents":      parents,
		"fuse":         fw.Fuse,
		"analyzer":     fw.Analyzer,
		"priority":     int64(fw.Priority),
		"launches":     int64(0),
		"reruns":       int64(0),
		"spec_history": []any{},
	}
	if fw.Binder != nil {
		fields := make([]any, len(fw.Binder.Fields))
		for i, f := range fw.Binder.Fields {
			fields[i] = f
		}
		doc["binder_fields"] = fields
		doc["binder_key"] = fw.Binder.Key(document.NormalizeDoc(fw.Stage))
	}
	if _, err := lp.engines.Insert(doc); err != nil {
		return err
	}
	return lp.Refresh(fw.ID)
}

// defuse aborts the firework and every other non-terminal firework in its
// workflow ("abort the entire workflow and mark it for manual
// intervention").
func (lp *LaunchPad) defuse(fwID, reason string) error {
	fw, err := lp.engines.FindID(fwID)
	if err != nil {
		return err
	}
	wfID := fw.GetString("wf_id")
	lp.count("defused")
	if _, err := lp.engines.UpdateOne(document.D{"_id": fwID},
		document.D{"$set": document.D{"state": string(StateDefused), "defuse_reason": reason}}); err != nil {
		return err
	}
	_, err = lp.engines.UpdateMany(
		document.D{"wf_id": wfID, "state": document.D{"$in": []any{
			string(StateWaiting), string(StateReady)}}},
		document.D{"$set": document.D{"state": string(StateDefused),
			"defuse_reason": "workflow aborted: " + reason}})
	return err
}

// WorkflowStates returns state -> count for one workflow.
func (lp *LaunchPad) WorkflowStates(wfID string) (map[State]int, error) {
	docs, err := lp.engines.FindAll(document.D{"wf_id": wfID}, nil)
	if err != nil {
		return nil, err
	}
	out := make(map[State]int)
	for _, d := range docs {
		out[State(d.GetString("state"))]++
	}
	return out, nil
}

// Firework fetches one firework document.
func (lp *LaunchPad) Firework(fwID string) (document.D, error) {
	return lp.engines.FindID(fwID)
}

// ReadyCount reports how many fireworks are claimable.
func (lp *LaunchPad) ReadyCount() int {
	n, err := lp.engines.Count(document.D{"state": string(StateReady)})
	if err != nil {
		return 0
	}
	return n
}
