#include "cluster/machine.hpp"

#include <gtest/gtest.h>

namespace istc::cluster {
namespace {

MachineSpec tiny() {
  return {.name = "tiny", .site = "test", .queue_system = "none",
          .cpus = 100, .clock_ghz = 0.5};
}

TEST(MachineSpec, TeraCycles) {
  EXPECT_DOUBLE_EQ(tiny().tera_cycles(), 100 * 0.5 * 1e9 / 1e12);
  // Table 1 checks.
  const MachineSpec bm{.name = "bm", .site = "", .queue_system = "",
                       .cpus = 4662, .clock_ghz = 0.262};
  EXPECT_NEAR(bm.tera_cycles(), 1.221, 0.001);
}

TEST(MachineSpec, RuntimeForRoundsUpAndFloorsAtOne) {
  const auto m = tiny();  // 0.5 GHz
  EXPECT_EQ(m.runtime_for(1e9), 2);     // 1 s @ 1 GHz -> 2 s here
  EXPECT_EQ(m.runtime_for(0.4e9), 1);   // 0.8 s -> ceil 1
  EXPECT_EQ(m.runtime_for(1), 1);       // never zero
  EXPECT_EQ(m.runtime_for(0.75e9), 2);  // 1.5 s -> ceil 2
}

TEST(MachineSpec, CyclesInInvertsRuntime) {
  const auto m = tiny();
  EXPECT_DOUBLE_EQ(m.cycles_in(10), 10 * 0.5e9);
}

}  // namespace
}  // namespace istc::cluster
