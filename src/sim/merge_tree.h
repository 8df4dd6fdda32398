// Distributed-aggregation simulator for Theorem 3 (full mergeability).
//
// Splits a stream into m parts ("nodes"), builds one sketch per part, and
// combines them through a configurable merge topology. Theorem 3 promises
// the error guarantee holds for *arbitrary* sequences of merge operations;
// the E5 bench and the merge tests sweep these topologies and compare
// against single-stream processing.
#ifndef REQSKETCH_SIM_MERGE_TREE_H_
#define REQSKETCH_SIM_MERGE_TREE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/random.h"
#include "util/validation.h"

namespace req {
namespace sim {

enum class MergeTopology {
  kLeftDeep,   // ((s0 + s1) + s2) + ... : a streaming-aggregation chain
  kBalanced,   // pairwise rounds: the map-reduce combiner pattern
  kRandomTree, // random binary tree: adversarial "arbitrary" merges
  kSharded,    // one flat N-way merge: the merge-on-query pattern of a
               // kSharded service metric (service/sketch_registry.h)
};

inline constexpr MergeTopology kAllMergeTopologies[] = {
    MergeTopology::kLeftDeep, MergeTopology::kBalanced,
    MergeTopology::kRandomTree, MergeTopology::kSharded};

inline std::string TopologyName(MergeTopology topology) {
  switch (topology) {
    case MergeTopology::kLeftDeep:
      return "left-deep";
    case MergeTopology::kBalanced:
      return "balanced";
    case MergeTopology::kRandomTree:
      return "random-tree";
    case MergeTopology::kSharded:
      return "sharded";
  }
  return "unknown";
}

// Compile-time probe for the N-way pointer-array merge
// (Merge(const Sketch* const*, size_t)); baseline sketches that only have
// the pairwise API fall back to a left-deep chain under kSharded.
template <typename S, typename = void>
struct HasNWayMerge : std::false_type {};
template <typename S>
struct HasNWayMerge<
    S, std::void_t<decltype(std::declval<S&>().Merge(
           std::declval<const S* const*>(), size_t{0}))>> : std::true_type {
};

// Splits `values` into `parts` contiguous chunks (sizes differ by <= 1).
inline std::vector<std::vector<double>> SplitStream(
    const std::vector<double>& values, size_t parts) {
  util::CheckArg(parts >= 1, "parts must be >= 1");
  util::CheckArg(values.size() >= parts,
                 "cannot split into more parts than items");
  std::vector<std::vector<double>> out(parts);
  const size_t base = values.size() / parts;
  const size_t extra = values.size() % parts;
  size_t pos = 0;
  for (size_t p = 0; p < parts; ++p) {
    const size_t len = base + (p < extra ? 1 : 0);
    out[p].assign(values.begin() + pos, values.begin() + pos + len);
    pos += len;
  }
  return out;
}

// Builds one sketch per part with `make_sketch(part_index)`, feeds it the
// part's values, then merges all per-part sketches via the topology.
// Sketch must provide Update(double) and Merge(const Sketch&).
template <typename Sketch>
Sketch BuildAndMerge(const std::vector<std::vector<double>>& parts,
                     const std::function<Sketch(size_t)>& make_sketch,
                     MergeTopology topology, uint64_t seed = 1) {
  util::CheckArg(!parts.empty(), "need at least one part");
  std::deque<Sketch> sketches;
  for (size_t p = 0; p < parts.size(); ++p) {
    Sketch s = make_sketch(p);
    for (double v : parts[p]) s.Update(v);
    sketches.push_back(std::move(s));
  }
  switch (topology) {
    case MergeTopology::kLeftDeep: {
      Sketch acc = std::move(sketches.front());
      sketches.pop_front();
      while (!sketches.empty()) {
        acc.Merge(sketches.front());
        sketches.pop_front();
      }
      return acc;
    }
    case MergeTopology::kSharded: {
      // The merge-on-query shape of a sharded metric: every
      // per-part sketch is a shard, and one flat N-way merge combines all
      // of them at once.
      Sketch acc = std::move(sketches.front());
      sketches.pop_front();
      if constexpr (HasNWayMerge<Sketch>::value) {
        std::vector<const Sketch*> sources;
        sources.reserve(sketches.size());
        for (const Sketch& s : sketches) sources.push_back(&s);
        acc.Merge(sources.data(), sources.size());
      } else {
        for (const Sketch& s : sketches) acc.Merge(s);
      }
      return acc;
    }
    case MergeTopology::kBalanced: {
      while (sketches.size() > 1) {
        std::deque<Sketch> next;
        while (sketches.size() >= 2) {
          Sketch a = std::move(sketches.front());
          sketches.pop_front();
          a.Merge(sketches.front());
          sketches.pop_front();
          next.push_back(std::move(a));
        }
        if (!sketches.empty()) {
          next.push_back(std::move(sketches.front()));
          sketches.pop_front();
        }
        sketches = std::move(next);
      }
      return std::move(sketches.front());
    }
    case MergeTopology::kRandomTree: {
      util::Xoshiro256 rng(seed);
      while (sketches.size() > 1) {
        const size_t i = static_cast<size_t>(
            rng.NextBounded(sketches.size()));
        size_t j = static_cast<size_t>(
            rng.NextBounded(sketches.size() - 1));
        if (j >= i) ++j;
        const size_t a = std::min(i, j);
        const size_t b = std::max(i, j);
        sketches[a].Merge(sketches[b]);
        sketches.erase(sketches.begin() + static_cast<ptrdiff_t>(b));
      }
      return std::move(sketches.front());
    }
  }
  util::CheckArg(false, "unknown merge topology");
  return make_sketch(0);  // unreachable
}

}  // namespace sim
}  // namespace req

#endif  // REQSKETCH_SIM_MERGE_TREE_H_
