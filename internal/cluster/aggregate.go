package cluster

import (
	"fmt"

	"matproj/internal/cluster/wire"
	"matproj/internal/datastore"
	"matproj/internal/document"
)

// aggregate runs a pipeline over the cluster on one of three paths,
// chosen from the pipeline's shape; each bumps its own counter.
//
//   - pinned (cluster.aggregate_pinned): a leading $match that fixes
//     _id routes the whole pipeline to one group, which runs it as is.
//   - partial (cluster.aggregate_partial): only $match, $project and
//     $unwind come before a splittable $group or $count (see
//     datastore.Splittable). Every shard runs that prefix and returns
//     one accumulator state row per group key; the router merges the
//     rows, finalizes them in $group's sorted-key order and runs the
//     remaining stages itself.
//   - gather (cluster.aggregate_gather): every other shape, including
//     the order-dependent accumulators and a $sort, $skip or $limit
//     before the $group. The leading $match is pushed down as a find,
//     every matching document comes back, and the whole rest of the
//     pipeline runs at the router.
//
// Every path runs the datastore's own stage code, so the answer equals
// a standalone store's.
func (r *Router) aggregate(collection string, pipeline []document.D) ([]document.D, error) {
	var matchFilter document.D
	rest := pipeline
	if len(pipeline) > 0 {
		if m, ok := pipeline[0]["$match"]; ok {
			if md, ok := toDoc(m); ok {
				matchFilter = md
				rest = pipeline[1:]
			}
		}
	}
	targets, err := r.targets(matchFilter)
	if err != nil {
		return nil, err
	}
	if len(targets) == 1 {
		r.reg.Counter("cluster.aggregate_pinned").Inc()
		var resp wire.DocsResponse
		req := wire.AggregateRequest{Collection: collection, Pipeline: pipeline}
		if err := r.readOnGroup(targets[0], wire.PathAggregate, req, &resp); err != nil {
			return nil, err
		}
		return resp.Docs, nil
	}
	if cut, ok := partialCut(pipeline); ok {
		r.reg.Counter("cluster.aggregate_partial").Inc()
		return r.aggregatePartial(collection, targets, pipeline, cut)
	}
	r.reg.Counter("cluster.aggregate_gather").Inc()
	docs, err := r.findAll(collection, matchFilter, nil)
	if err != nil {
		return nil, err
	}
	return datastore.RunPipeline(docs, rest)
}

// partialCut finds the stage a pipeline splits at: the first stage,
// when it is a splittable $group or $count and only $match, $project or
// $unwind come before it.
func partialCut(pipeline []document.D) (int, bool) {
	for i, st := range pipeline {
		if datastore.Splittable(st) {
			return i, true
		}
		if len(st) != 1 {
			return 0, false
		}
		for op := range st {
			switch op {
			case "$match", "$project", "$unwind":
			default:
				return 0, false
			}
		}
	}
	return 0, false
}

// aggregatePartial runs pipeline[:cut+1] on every target group as a
// partial read, combines the state rows and runs pipeline[cut+1:] at the
// router. The per-group state rows go through the result cache: a
// handful of rows per group instead of every matching document.
func (r *Router) aggregatePartial(collection string, targets []int, pipeline []document.D, cut int) ([]document.D, error) {
	req := wire.AggregateRequest{Collection: collection, Pipeline: pipeline[:cut+1], Partial: true}
	states := make([][]document.D, len(targets))
	err := r.scatter(targets, func(gi int) error {
		v, err := r.groupRead(true, collection, gi, "aggregate", req, func() (any, error) {
			var resp wire.DocsResponse
			if err := r.readOnGroup(gi, wire.PathAggregate, req, &resp); err != nil {
				return nil, err
			}
			return resp.Docs, nil
		})
		if err != nil {
			return err
		}
		for slot, t := range targets {
			if t == gi {
				states[slot] = v.([]document.D)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var all []document.D
	for _, rows := range states {
		all = append(all, rows...)
	}
	rows, err := datastore.CombinePartial(pipeline[cut], all)
	if err != nil {
		return nil, fmt.Errorf("cluster: combine %s partial state: %w", collection, err)
	}
	return datastore.RunPipeline(rows, pipeline[cut+1:])
}
