#include "storage/policy.hpp"

namespace flo::storage {

const char* policy_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kLruInclusive:
      return "LRU (inclusive)";
    case PolicyKind::kDemoteLru:
      return "DEMOTE-LRU";
    case PolicyKind::kKarma:
      return "KARMA";
  }
  return "?";
}

}  // namespace flo::storage
