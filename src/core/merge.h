// Algorithm 2: merging two atypical clusters into a macro-cluster.
//
// SF and TF merge per Eq. 5/6 (common keys accumulate severity, the rest
// carry over) and the result gets a fresh id.  The operation is commutative
// and associative (Property 3) and runs in O(|SF1|+|SF2|+|TF1|+|TF2|)
// (Proposition 2).
//
// AbsorbCluster is the one implementation: it merges `b` into `a` in place,
// through FeatureVector::MergeFrom and caller-owned buffers, so Algorithm 3
// (IntegrateClusters) grows a survivor without building a new cluster per
// merge.  MergeClusters is the value form: a copy of `a` that absorbs `b`.
#ifndef ATYPICAL_CORE_MERGE_H_
#define ATYPICAL_CORE_MERGE_H_

#include <vector>

#include "core/cluster.h"

namespace atypical {

// Buffers an absorb merges into and swaps with the survivor's vectors, one
// per vector so SF storage stays SF storage.  After each absorb they hold
// the survivor's old storage, so one MergeScratch reused over a run of
// merges stops allocating once its buffers have grown to the run's largest
// cluster.  A survivor can thus leave with more capacity than entries;
// IntegrateClusters trims its survivors once, as they leave.
struct MergeScratch {
  std::vector<FeatureVector::Entry> spatial;
  std::vector<FeatureVector::Entry> temporal;
  std::vector<ClusterId> micro_ids;
};

// Merges `b` into `*a`.  Both clusters must use the same TemporalKeyMode,
// and both micro_ids lists must be sorted.  Metadata is combined exactly
// as a fresh merge would set it: the id becomes ids->Next(), children
// become (old a.id, b.id), micro_ids the sorted union, the day span the
// union, record counts the sum, and the dominant event is the one of the
// side with the larger severity before the merge (ties go to `a`).
void AbsorbCluster(AtypicalCluster* a, const AtypicalCluster& b,
                   ClusterIdGenerator* ids, MergeScratch* scratch);

// The merge of `a` and `b` as a new cluster: a copy of `a` that absorbs `b`.
AtypicalCluster MergeClusters(const AtypicalCluster& a,
                              const AtypicalCluster& b,
                              ClusterIdGenerator* ids);

}  // namespace atypical

#endif  // ATYPICAL_CORE_MERGE_H_
