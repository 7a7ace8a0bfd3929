// paper_claims — runs the paper's claims (bench/claims_*.cpp) and gates on
// their verdicts.
//
//   paper_claims --list                    # every claim, its flags and defaults
//   paper_claims                           # all claims at their defaults
//   paper_claims --claim=E3 --sizes=8,16   # one claim, flags overridden
//   paper_claims --claim=E1 --threads=4    # sweep workers (output unchanged)
//
// Exit code: 0 when every claim ran and every verdict held, 1 when a run
// failed or a verdict did not hold, 2 on a usage error (unknown claim or
// flag, malformed value), which is reported before any claim runs.
#include <algorithm>

#include "exp_common.h"
#include "util/flags.h"

using namespace gcs;
using namespace gcs::bench;

namespace {

const Registry<ClaimFn>& claims() {
  static const Registry<ClaimFn> registry = [] {
    Registry<ClaimFn> r("claim");
    register_skew_claims(r);
    register_dynamics_claims(r);
    return r;
  }();
  return registry;
}

/// Claim ids in numeric order (E1, E2, ..., E15), not lexicographic.
std::vector<std::string> claim_ids() {
  auto ids = claims().names();
  std::ranges::sort(ids, [](const std::string& a, const std::string& b) {
    return std::pair(a.size(), a) < std::pair(b.size(), b);
  });
  return ids;
}

void print_flags(std::ostream& os, const std::vector<ParamDoc>& docs) {
  for (const ParamDoc& p : docs) {
    os << "      " << p.name << " (default " << p.def << "): " << p.desc << "\n";
  }
}

int fail_usage(const std::string& message, const std::string& claim_id) {
  std::cerr << "error: " << message << "\n\n"
            << "usage: paper_claims [--claim=<id> [--<flag>=<value> ...]] [--threads=2]\n"
            << "  --list       every claim with its flags and defaults\n"
            << "  --claim=<id> run one claim; without it every claim runs at its defaults\n"
            << "  --threads=N  sweep worker threads (results do not depend on N)\n";
  if (claims().contains(claim_id)) {
    std::cerr << claim_id << " flags:\n";
    print_flags(std::cerr, claims().get(claim_id).params);
  }
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.has("list")) {
    std::cout << "claims:\n";
    for (const std::string& id : claim_ids()) {
      std::cout << "  " << id << " — " << claims().get(id).description << "\n";
      print_flags(std::cout, claims().get(id).params);
    }
    return 0;
  }

  const std::string claim_id = flags.get("claim", std::string());
  SweepOptions options;
  ParamMap claim_flags;
  for (const auto& [key, value] : flags.all()) {
    if (key != "claim" && key != "threads") claim_flags.set(key, value);
  }
  // Read every selected claim's flags before any claim runs, so bad input
  // is a usage error and never a partial run.
  std::vector<std::pair<std::string, ClaimBody>> bodies;
  try {
    if (!flags.positional().empty()) {
      throw std::runtime_error("unexpected argument '" + flags.positional().front() + "'");
    }
    options.threads = parse_strict_int("--threads", flags.get("threads", std::string("2")));
    if (!flags.has("claim") && !claim_flags.empty()) {
      throw std::runtime_error("--" + claim_flags.all().begin()->first +
                               " needs --claim=<id> (see --list)");
    }
    for (const std::string& id : flags.has("claim") ? std::vector{claim_id} : claim_ids()) {
      const auto& entry = claims().get(id);
      claim_flags.check_known(entry.params, id);
      bodies.emplace_back(id, entry.factory(claim_flags));
    }
  } catch (const std::exception& e) {
    return fail_usage(e.what(), claim_id);
  }

  int failed_claims = 0;
  for (const auto& [id, body] : bodies) {
    std::cout << "\n################################################################\n"
              << "# " << id << "\n"
              << "# " << claims().get(id).description << "\n"
              << "################################################################\n";
    Claim claim{options};
    bool ok = true;
    try {
      body(claim);
      ok = claim.failed_verdicts == 0;
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      ok = false;
    }
    std::cerr << id << ": " << (ok ? "pass" : "FAIL") << "\n";
    failed_claims += ok ? 0 : 1;
  }
  return failed_claims == 0 ? 0 : 1;
}
