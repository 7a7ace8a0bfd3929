// Tests for the generic Registry/ParamMap machinery and the builtin
// component registries (unknown names, duplicate registration, parameter
// validation, --list metadata).
#include <gtest/gtest.h>

#include "clock/drift.h"
#include "core/algo_registry.h"
#include "estimate/estimate_source.h"
#include "graph/adversary.h"
#include "graph/topology.h"
#include "runner/registries.h"
#include "util/registry.h"

namespace gcs {
namespace {

using TestFactory = std::function<int(const ParamMap&)>;

TEST(Registry, UnknownNameThrowsAndListsKnownNames) {
  Registry<TestFactory> r("widget");
  r.add({"alpha", "first", {}, [](const ParamMap&) { return 1; }});
  r.add({"beta", "second", {}, [](const ParamMap&) { return 2; }});
  try {
    (void)r.get("gamma");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown widget 'gamma'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("alpha"), std::string::npos) << msg;
    EXPECT_NE(msg.find("beta"), std::string::npos) << msg;
  }
}

TEST(Registry, DuplicateRegistrationThrows) {
  Registry<TestFactory> r("widget");
  r.add({"alpha", "", {}, [](const ParamMap&) { return 1; }});
  EXPECT_THROW(r.add({"alpha", "", {}, [](const ParamMap&) { return 2; }}),
               std::runtime_error);
}

TEST(Registry, EmptyNameRejected) {
  Registry<TestFactory> r("widget");
  EXPECT_THROW(r.add({"", "", {}, [](const ParamMap&) { return 1; }}),
               std::runtime_error);
}

TEST(Registry, NamesAreSortedAndContainsWorks) {
  Registry<TestFactory> r("widget");
  r.add({"zeta", "", {}, [](const ParamMap&) { return 1; }});
  r.add({"alpha", "", {}, [](const ParamMap&) { return 2; }});
  EXPECT_EQ(r.names(), (std::vector<std::string>{"alpha", "zeta"}));
  EXPECT_TRUE(r.contains("zeta"));
  EXPECT_FALSE(r.contains("eta"));
}

TEST(ParamMap, TypedGettersParseStrictly) {
  ParamMap p;
  p.set("a", "1.5");
  p.set("b", "42");
  p.set("c", "true");
  p.set("d", "nope");
  EXPECT_DOUBLE_EQ(p.get_double("a", 0.0), 1.5);
  EXPECT_EQ(p.get_int("b", 0), 42);
  EXPECT_TRUE(p.get_bool("c", false));
  EXPECT_THROW((void)p.get_double("d", 0.0), std::runtime_error);
  EXPECT_THROW((void)p.get_int("a", 0), std::runtime_error);  // "1.5" not an int
  EXPECT_THROW((void)p.get_bool("b", false), std::runtime_error);
  EXPECT_DOUBLE_EQ(p.get_double("missing", 7.0), 7.0);
}

TEST(ParamMap, CheckKnownRejectsTypos) {
  ParamMap p;
  p.set("period", "10");
  p.set("stdd", "0.1");  // typo
  const std::vector<ParamDoc> docs = {{"period", "10", ""}, {"std", "0", ""}};
  EXPECT_THROW(p.check_known(docs, "drift 'walk'"), std::runtime_error);
}

TEST(ParamMap, FormatRoundTripsDoubles) {
  for (double v : {0.05, 1e-3, 1.0 / 3.0, 123456.789, 1e9}) {
    EXPECT_DOUBLE_EQ(std::stod(ParamMap::format(v)), v);
  }
}

TEST(BuiltinRegistries, AllFamiliesPopulated) {
  EXPECT_TRUE(topology_registry().contains("line"));
  EXPECT_TRUE(topology_registry().contains("geometric"));
  EXPECT_TRUE(algo_registry().contains("aopt"));
  EXPECT_TRUE(algo_registry().contains("max-jump"));
  EXPECT_TRUE(drift_registry().contains("spread"));
  EXPECT_TRUE(estimate_registry().contains("beacon"));
  EXPECT_TRUE(gskew_registry().contains("distributed"));
  EXPECT_TRUE(adversary_registry().contains("churn"));
}

TEST(BuiltinRegistries, DescribeCoversEveryFamilyAndComponent) {
  const auto families = describe_registries();
  ASSERT_EQ(families.size(), 6u);
  std::size_t total = 0;
  for (const auto& family : families) {
    EXPECT_FALSE(family.family.empty());
    EXPECT_FALSE(family.components.empty()) << family.family;
    for (const auto& c : family.components) {
      EXPECT_FALSE(c.name.empty());
      total += 1;
    }
  }
  // Every registry entry appears exactly once in the description.
  const std::size_t expected =
      topology_registry().names().size() + algo_registry().names().size() +
      drift_registry().names().size() + estimate_registry().names().size() +
      gskew_registry().names().size() + adversary_registry().names().size();
  EXPECT_EQ(total, expected);
}

TEST(BuiltinRegistries, UserComponentsCanRegisterAtRuntime) {
  // Third-party drift model: registered once, then constructible by name
  // through the exact same path as the builtins.
  if (!drift_registry().contains("test-frozen")) {
    drift_registry().add(
        {"test-frozen",
         "all clocks perfect (test-only)",
         {},
         [](const ParamMap&, const DriftArgs& a) -> std::unique_ptr<DriftModel> {
           return std::make_unique<ConstantDrift>(
               a.rho, std::vector<double>(static_cast<std::size_t>(a.n), 1.0));
         }});
  }
  const auto& entry = drift_registry().get("test-frozen");
  DriftArgs args{4, 1e-3, 1};
  auto model = entry.factory(ParamMap{}, args);
  ASSERT_NE(model, nullptr);
  EXPECT_DOUBLE_EQ(model->rate_at(0, 10.0), 1.0);
}

}  // namespace
}  // namespace gcs
