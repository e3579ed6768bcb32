#ifndef DSMS_EXEC_SHARD_PARTITIONER_H_
#define DSMS_EXEC_SHARD_PARTITIONER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace dsms {

class QueryGraph;

/// Static assignment of a validated query graph's operators to N shards
/// (docs/execution_model.md, "Sharded execution"). Sources anchor the
/// partitioning — shard = FNV-1a(stream_id) mod N — and every other operator
/// inherits the shard of the operator feeding its input 0 ("first-input
/// lineage"). A fan-in is therefore homed with its first input; exactly its
/// remaining inputs arrive over cross-shard arcs, where punctuation/ETS
/// flows shard-to-shard and the fan-in's own TSM registers perform the
/// min-frontier merge that preserves IWP ordering.
struct ShardPlan {
  int num_shards = 1;

  /// Shard of each operator, indexed by operator id.
  std::vector<int> op_shard;

  /// Operator ids per shard, ascending (ToString prints them).
  std::vector<std::vector<int>> shard_ops;

  /// Buffer ids whose producer and consumer live on different shards.
  std::vector<int> cross_arcs;
  /// By buffer id: 1 when the arc crosses shards.
  std::vector<uint8_t> arc_crosses;

  /// By operator id: the source stream ids that could result in input for
  /// this operator (its ancestor sources), ascending. This is the
  /// subscription set handed to FrontierTracker::SubscribeCouldResultIn so
  /// lease/quarantine evidence maps onto the shard topology.
  std::vector<std::vector<int32_t>> upstream_streams;

  int shard_of(int op_id) const { return op_shard[op_id]; }
  bool ArcCrossesShards(int buffer_id) const {
    return arc_crosses[buffer_id] != 0;
  }

  /// Multi-line debug dump.
  std::string ToString() const;
};

class ShardPartitioner {
 public:
  /// Stable 32-bit FNV-1a over the 4 bytes of a stream id; the partitioning
  /// hash is part of the deterministic-replay contract (checkpoints taken at
  /// shards=N only restore correctly at the same N with the same hash).
  static uint32_t HashStream(int32_t stream_id);

  /// Partitions `graph` (validated) across `num_shards` >= 1 shards.
  static ShardPlan Partition(const QueryGraph& graph, int num_shards);
};

}  // namespace dsms

#endif  // DSMS_EXEC_SHARD_PARTITIONER_H_
