package cluster

// HashShard exposes the router's placement hash to the external test
// package, so tests can pick ids that land on a chosen group.
var HashShard = hashShard
