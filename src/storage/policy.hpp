// Cache-management policy selection (Sections 5.1 and 5.4 / Fig. 7(h)).
#pragma once

#include <string>

namespace flo::storage {

enum class PolicyKind {
  /// Paper default: LRU at both layers, inclusive (blocks filled on the way
  /// up stay resident below).
  kLruInclusive,
  /// Wong & Wilkes [44]: exclusive caching with client-side demotions; the
  /// storage array runs plain LRU over demoted and freshly read blocks.
  kDemoteLru,
  /// Yadgar et al. [47]: exclusive caching driven by application hints that
  /// classify blocks into disjoint range sets placed at exactly one level.
  kKarma,
};

const char* policy_name(PolicyKind kind);

}  // namespace flo::storage
