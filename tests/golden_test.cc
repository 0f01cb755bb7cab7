// Checked-in build digests: FNV-1a 64 hashes of what the application
// builders produce, so a change to a builder, its kernels or its sampler
// that moves a single bit fails here and names where.
//
// Pinned: GenerateKronMatrix at the SpGEMM and BFS builder shapes (the
// first product and the first snapshot: row_ptr, col_idx, the bits of
// values), SpGEMM's symbolic row counts, and every numeric field of the
// sim::Workload that BuildApp(app, 1, 1) returns for all five apps.
// Label `golden` (`ctest -L golden`).
//
// A failure names the subject and its first differing section, then
// prints the subject's current rows. Paste them over kGolden's rows only
// for a declared output change.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/bfs.h"
#include "apps/kernels/csr.h"
#include "apps/registry.h"
#include "apps/spgemm.h"
#include "common/rng.h"
#include "golden.h"

namespace merch::apps {
namespace {

using golden::DigestOf;
using golden::Fnv1a;
using golden::Sections;

// Recorded from the build before the guide-table Zipf sampler and the
// branch-free symbolic pass; both must leave every row unchanged.
const golden::Row kGolden[] = {
    {"kron.SpGEMM", "row_ptr", 0xbcd6f942756cb8eaull},
    {"kron.SpGEMM", "col_idx", 0x90dff6f11c81f3ccull},
    {"kron.SpGEMM", "values", 0x10291e31c24e31acull},
    {"kron.SpGEMM", "symbolic", 0x7cc85ab1aaf7f22bull},
    {"kron.BFS", "row_ptr", 0x96fd7eae324bc007ull},
    {"kron.BFS", "col_idx", 0xa56ba6bac49ae41full},
    {"kron.BFS", "values", 0xfd820282c9b5cd00ull},
    {"SpGEMM", "objects", 0x4f15a0731e2ca3ebull},
    {"SpGEMM", "active_bytes", 0xe2945c42e9e50b4cull},
    {"SpGEMM", "kernels", 0x44ce5081420d26ebull},
    {"SpGEMM", "accesses", 0xa37bddbbdc8b04c5ull},
    {"WarpX", "objects", 0x6224c503d9dc9d2dull},
    {"WarpX", "active_bytes", 0x7c5486cdc8bce5bdull},
    {"WarpX", "kernels", 0xb6f83cd900c1cc01ull},
    {"WarpX", "accesses", 0xffa02fbb017f26daull},
    {"BFS", "objects", 0xcc4b3fdf2aae7a2aull},
    {"BFS", "active_bytes", 0x4b1f9465ea373e97ull},
    {"BFS", "kernels", 0xf26580b8cc2c07aaull},
    {"BFS", "accesses", 0xc64ed829ca703295ull},
    {"DMRG", "objects", 0x616eb19f8784ea27ull},
    {"DMRG", "active_bytes", 0x966f8775d2f57123ull},
    {"DMRG", "kernels", 0xf151faeaf6c3134full},
    {"DMRG", "accesses", 0x6b196ad3058e2e2cull},
    {"NWChem-TC", "objects", 0x2ae836445f1eb5bcull},
    {"NWChem-TC", "active_bytes", 0x01bc6d4987646b0aull},
    {"NWChem-TC", "kernels", 0x19cb7f4178ae6bf3ull},
    {"NWChem-TC", "accesses", 0xf8eefd176965d310ull},
};

void AddMatrix(const CsrMatrix& m, Sections* out) {
  out->emplace_back("row_ptr", DigestOf(m.row_ptr));
  out->emplace_back("col_idx", DigestOf(m.col_idx));
  out->emplace_back("values", DigestOf(m.values));
}

Sections WorkloadSections(const sim::Workload& w) {
  Fnv1a objects, active, kernels, accesses;
  objects.Add(static_cast<std::uint64_t>(w.objects.size()));
  for (const sim::ObjectDecl& o : w.objects) {
    objects.Add(o.bytes);
    objects.Add(static_cast<std::uint64_t>(o.owner));
    objects.Add(static_cast<std::uint64_t>(o.heat.kind()));
    objects.Add(o.heat.exponent());
    objects.Add(o.reuse_passes);
  }
  kernels.Add(static_cast<std::uint64_t>(w.regions.size()));
  for (const sim::Region& r : w.regions) {
    active.AddAll(r.active_bytes);
    kernels.Add(static_cast<std::uint64_t>(r.tasks.size()));
    for (const sim::TaskProgram& tp : r.tasks) {
      kernels.Add(static_cast<std::uint64_t>(tp.task));
      kernels.Add(static_cast<std::uint64_t>(tp.kernels.size()));
      for (const sim::Kernel& k : tp.kernels) {
        kernels.Add(k.instructions);
        kernels.Add(k.branch_fraction);
        kernels.Add(k.vector_fraction);
        accesses.Add(static_cast<std::uint64_t>(k.accesses.size()));
        for (const trace::ObjectAccess& a : k.accesses) {
          accesses.Add(static_cast<std::uint64_t>(a.object));
          accesses.Add(static_cast<std::uint64_t>(a.pattern));
          accesses.Add(a.program_accesses);
          accesses.Add(static_cast<std::uint64_t>(a.element_bytes));
          accesses.Add(static_cast<std::uint64_t>(a.stride_elements));
          accesses.Add(a.read_fraction);
        }
      }
    }
  }
  return {{"objects", objects.value()},
          {"active_bytes", active.value()},
          {"kernels", kernels.value()},
          {"accesses", accesses.value()}};
}

/// Compares `got` with kGolden's rows for `subject`, in order. On the
/// first difference, names it and prints the subject's current rows.
void ExpectGolden(const std::string& subject, const Sections& got) {
  const std::string first_diff = golden::FirstDifference(kGolden, subject, got);
  if (first_diff.empty()) return;
  std::string rows;
  for (const auto& [section, digest] : got) {
    char line[160];
    std::snprintf(line, sizeof line, "    {\"%s\", \"%s\", 0x%016llxull},\n",
                  subject.c_str(), section.c_str(),
                  static_cast<unsigned long long>(digest));
    rows += line;
  }
  ADD_FAILURE() << subject << ": first differing section '" << first_diff
                << "'. Current rows:\n"
                << rows;
}

TEST(BuildGolden, SpGemmProductAndSymbolicCounts) {
  const SpGemmConfig cfg;
  Rng rng(cfg.seed);
  const CsrMatrix a =
      GenerateKronMatrix(cfg.rows, cfg.avg_degree, cfg.skew, rng);
  Sections got;
  AddMatrix(a, &got);
  got.emplace_back("symbolic", DigestOf(SpGemmSymbolic(a, a)));
  ExpectGolden("kron.SpGEMM", got);
}

TEST(BuildGolden, BfsSnapshot) {
  const BfsConfig cfg;
  Rng rng(cfg.seed);
  Sections got;
  AddMatrix(GenerateKronMatrix(cfg.vertices, cfg.avg_degree, cfg.skew, rng),
            &got);
  ExpectGolden("kron.BFS", got);
}

class WorkloadGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadGolden, BuildAppMatchesCheckedInDigests) {
  ExpectGolden(GetParam(),
               WorkloadSections(BuildApp(GetParam(), 1, 1).workload));
}

INSTANTIATE_TEST_SUITE_P(AllApps, WorkloadGolden,
                         ::testing::ValuesIn(AppNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace merch::apps
