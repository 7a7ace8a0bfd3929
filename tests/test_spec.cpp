// Tests for ComponentSpec / ScenarioSpec: key=value parsing, the shared
// set() path, round-tripping, and validation against the registries.
#include <gtest/gtest.h>

#include "runner/scenario.h"
#include "runner/spec.h"

namespace gcs {
namespace {

TEST(ComponentSpec, ParsesKindOnly) {
  const auto c = ComponentSpec::parse("ring");
  EXPECT_EQ(c.kind, "ring");
  EXPECT_TRUE(c.params.empty());
}

TEST(ComponentSpec, ParsesParams) {
  const auto c = ComponentSpec::parse("grid:rows=4,cols=6");
  EXPECT_EQ(c.kind, "grid");
  EXPECT_EQ(c.params.get_int("rows", 0), 4);
  EXPECT_EQ(c.params.get_int("cols", 0), 6);
}

TEST(ComponentSpec, StrRoundTrips) {
  for (const std::string text : {"ring", "grid:cols=6,rows=4", "walk:period=5,std=0.01"}) {
    const auto c = ComponentSpec::parse(text);
    EXPECT_EQ(ComponentSpec::parse(c.str()), c) << text;
  }
}

TEST(ComponentSpec, RejectsMalformedText) {
  EXPECT_THROW(ComponentSpec::parse(""), std::runtime_error);
  EXPECT_THROW(ComponentSpec::parse(":p=1"), std::runtime_error);
  EXPECT_THROW(ComponentSpec::parse("gnp:p"), std::runtime_error);
  EXPECT_THROW(ComponentSpec::parse("gnp:=2"), std::runtime_error);
}

TEST(ScenarioSpec, SetCoversComponentsScalarsAndDottedParams) {
  ScenarioSpec spec;
  spec.set("n", "12");
  spec.set("seed", "77");
  spec.set("topo", "gnp:p=0.3");
  spec.set("topo.p", "0.4");  // dotted param overrides
  spec.set("mu", "0.08");
  spec.set("eps", "0.2");
  spec.set("beacon_period", "0.75");
  spec.set("insertion", "dynamic");
  spec.set("delays", "max");
  spec.set("drift", "walk:period=5");
  spec.set("gtilde", "auto");
  EXPECT_EQ(spec.n, 12);
  EXPECT_EQ(spec.seed, 77u);
  EXPECT_EQ(spec.topology.kind, "gnp");
  EXPECT_DOUBLE_EQ(spec.topology.params.get_double("p", 0.0), 0.4);
  EXPECT_DOUBLE_EQ(spec.aopt.mu, 0.08);
  EXPECT_DOUBLE_EQ(spec.edge_params.eps, 0.2);
  EXPECT_DOUBLE_EQ(spec.engine.beacon_period, 0.75);
  EXPECT_EQ(spec.aopt.insertion, InsertionPolicy::kStagedDynamic);
  EXPECT_EQ(spec.delays, DelayMode::kMax);
  EXPECT_EQ(spec.drift.kind, "walk");
  EXPECT_TRUE(spec.gtilde_auto);
}

TEST(ScenarioSpec, SetRejectsUnknownKeysAndBadValues) {
  ScenarioSpec spec;
  EXPECT_THROW(spec.set("bogus", "1"), std::runtime_error);
  EXPECT_THROW(spec.set("n", "twelve"), std::runtime_error);
  EXPECT_THROW(spec.set("mu", "fast"), std::runtime_error);
  EXPECT_THROW(spec.set("insertion", "yolo"), std::runtime_error);
  EXPECT_THROW(spec.set("wat.p", "1"), std::runtime_error);
}

TEST(ScenarioSpec, LegacyAliasesMapToComponents) {
  // The seed-era flat aliases and the retired engine/island knobs are gone:
  // each is an unknown key now.
  ScenarioSpec spec;
  for (const char* key :
       {"rows", "cols", "dim", "k", "path", "p", "radius", "block_period",
        "sine_period", "walk_period", "blocks", "walk_std", "churn",
        "gskew_factor", "gskew_margin", "gskew_hint", "coalesce", "island_budget"}) {
    EXPECT_THROW(spec.set(key, "1"), std::runtime_error) << key;
  }
  // Their canonical forms produce the spec the aliases used to.
  spec.set("topo", "grid");
  spec.set("topo.rows", "3");
  spec.set("topo.cols", "7");
  spec.set("drift.blocks", "4");
  spec.set("drift.period", "50");
  spec.set("adversary", "churn:rate=0.25");
  EXPECT_EQ(spec.topology.params.get_int("rows", 0), 3);
  EXPECT_EQ(spec.topology.params.get_int("cols", 0), 7);
  EXPECT_EQ(spec.drift.params.get_int("blocks", 0), 4);
  EXPECT_DOUBLE_EQ(spec.drift.params.get_double("period", 0.0), 50.0);
  EXPECT_EQ(spec.adversary.kind, "churn");
  EXPECT_DOUBLE_EQ(spec.adversary.params.get_double("rate", 0.0), 0.25);
}

TEST(ScenarioSpec, KvRoundTripReproducesTheSpec) {
  ScenarioSpec spec;
  spec.name = "round-trip";
  spec.n = 24;
  spec.seed = 9;
  spec.topology = ComponentSpec("geometric", ParamMap{{"radius", "0.4"}});
  spec.algo = ComponentSpec("bounded-rate-max");
  spec.drift = ComponentSpec("blocks", ParamMap{{"blocks", "3"}, {"period", "75"}});
  spec.estimates = ComponentSpec("beacon");
  spec.gskew = ComponentSpec("oracle", ParamMap{{"factor", "2.5"}, {"margin", "0.5"}});
  spec.adversary = ComponentSpec("churn", ParamMap{{"rate", "0.1"}});
  spec.aopt.rho = 2e-3;
  spec.aopt.mu = 0.09;
  spec.aopt.insertion = InsertionPolicy::kWeightDecay;
  spec.edge_params = default_edge_params(0.07, 0.3, 0.9, 0.2);
  spec.engine.beacon_period = 0.4;
  spec.detection = DetectionDelayMode::kMax;
  spec.delays = DelayMode::kMin;
  spec.reference_node = 2;
  spec.gtilde_auto = true;

  ScenarioSpec rebuilt;
  for (const auto& [key, value] : spec.to_kv()) rebuilt.set(key, value);
  EXPECT_EQ(rebuilt.to_kv(), spec.to_kv());
  EXPECT_EQ(rebuilt.str(), spec.str());
}

TEST(ScenarioSpec, ValidateCatchesBadComponents) {
  ScenarioSpec spec;
  spec.edge_params = default_edge_params();
  spec.topology = ComponentSpec("ring");
  spec.validate();  // baseline: fine

  auto bad_kind = spec;
  bad_kind.estimates = ComponentSpec("psychic");
  EXPECT_THROW(bad_kind.validate(), std::runtime_error);

  auto bad_param = spec;
  bad_param.gskew = ComponentSpec("oracle", ParamMap{{"fudge", "2"}});
  EXPECT_THROW(bad_param.validate(), std::runtime_error);
}

TEST(ScenarioSpec, FromFlagsSharesTheCliParsingPath) {
  const char* argv[] = {"prog", "--topo=torus:rows=3,cols=3", "--mu=0.07",
                        "--drift=sine:period=120", "--seed=5", "--horizon=99"};
  const Flags flags(6, argv);
  const auto spec = ScenarioSpec::from_flags(flags, {"horizon"});
  EXPECT_EQ(spec.topology.kind, "torus");
  EXPECT_DOUBLE_EQ(spec.aopt.mu, 0.07);
  EXPECT_EQ(spec.drift.kind, "sine");
  EXPECT_EQ(spec.seed, 5u);

  // A spec built from flags actually runs (torus sizes n itself).
  auto runnable = spec;
  runnable.edge_params = default_edge_params();
  Scenario s(runnable);
  EXPECT_EQ(s.spec().n, 9);
}

}  // namespace
}  // namespace gcs
