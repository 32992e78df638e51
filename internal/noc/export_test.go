package noc

// RefStep advances n by one cycle with the full-scan reference engine (see
// refStep), for the external test package.
func RefStep(n *Network) { refStep(n) }

// SetShardMinActive sets n's per-shard fork threshold (see
// defaultShardMinActive); zero forks the parallel scans every sharded cycle.
func SetShardMinActive(n *Network, perShard int) { n.shardMinActive = perShard }
