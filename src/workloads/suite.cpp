#include "workloads/suite.hpp"

#include <stdexcept>

namespace flo::workloads {

namespace {

struct Entry {
  const char* name;
  Workload (*build)();
};

/// The 16 applications in Table 2 order: the one list behind the names,
/// the suite and the by-name lookup.
constexpr Entry kSuite[] = {
    {"cc-ver-1", make_cc_ver_1}, {"s3asim", make_s3asim},
    {"twer", make_twer},         {"bt", make_bt},
    {"cc-ver-2", make_cc_ver_2}, {"astro", make_astro},
    {"wupwise", make_wupwise},   {"contour", make_contour},
    {"mgrid", make_mgrid},       {"swim", make_swim},
    {"afores", make_afores},     {"sar", make_sar},
    {"hf", make_hf},             {"qio", make_qio},
    {"applu", make_applu},       {"sp", make_sp},
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Entry& e : kSuite) out.emplace_back(e.name);
    return out;
  }();
  return names;
}

std::vector<Workload> workload_suite() {
  std::vector<Workload> suite;
  suite.reserve(std::size(kSuite));
  for (const Entry& e : kSuite) suite.push_back(e.build());
  return suite;
}

Workload workload_by_name(const std::string& name) {
  for (const Entry& e : kSuite) {
    if (name == e.name) return e.build();
  }
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace flo::workloads
