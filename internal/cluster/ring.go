// Package cluster federates N emxd nodes into one experiment service:
// a rendezvous-hashing ring routes each content-addressed run to an
// owner node (so the per-node LRU caches shard instead of duplicating),
// a membership layer probes /v1/status and tracks node health, and a
// failover-aware client issues one attempt at a time with per-attempt
// timeouts, bounded retries, and graceful degradation to any healthy
// peer — or local in-process execution — when the owner is down.
//
// A request is never sent twice at once: its latency is almost all
// simulation time, and a second node would rerun the whole simulation
// without the owner's cached result. Failover never changes results: runs are deterministic, so any node
// (or the local fallback) produces byte-identical measurements for a
// given run identity.
package cluster

import "emx/internal/ring"

// Ring is the rendezvous-hashing ring the cluster routes by. The
// implementation lives in internal/ring so the replication layer
// (internal/labd/service) ranks replica sets with the identical hash;
// this alias keeps the cluster-level API unchanged.
type Ring = ring.Ring

// NewRing builds a ring over the given member identifiers (node base
// URLs). See ring.New.
func NewRing(members []string) *Ring { return ring.New(members) }
