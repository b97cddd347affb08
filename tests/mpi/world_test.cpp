// World / Rank wiring: per-rank resources, control-plane routing,
// communicator-id allocation, option plumbing.
#include <gtest/gtest.h>

#include <vector>

#include "backend/des_backend.hpp"
#include "mpi/world.hpp"
#include "sim/engine.hpp"

namespace partib::mpi {
namespace {

TEST(World, RanksGetDistinctNodesAndIds) {
  WorldOptions o;
  o.ranks = 4;
  backend::DesBackend des(backend_config(o));
  World world(des, o);
  ASSERT_EQ(world.size(), 4);
  std::vector<fabric::NodeId> nodes;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(world.rank(i).id(), i);
    nodes.push_back(world.rank(i).node());
  }
  std::sort(nodes.begin(), nodes.end());
  EXPECT_TRUE(std::adjacent_find(nodes.begin(), nodes.end()) == nodes.end());
}

TEST(World, CpuUsesConfiguredCoreCount) {
  backend::DesBackend des(backend_config({}));
  World world(des, {});
  EXPECT_EQ(world.rank(0).cpu().cores(), kCoresPerRank);
}

TEST(World, ControlMessagesArriveWithControlLatency) {
  WorldOptions o;
  backend::DesBackend des(backend_config(o));
  World world(des, o);
  Time delivered = -1;
  world.send_control(0, 1, [&] { delivered = des.now(); });
  des.run_until_idle();
  EXPECT_EQ(delivered, o.nic.wire.L + o.nic.ctrl_overhead);
}

TEST(World, ControlMessagesPreserveOrderPerPair) {
  backend::DesBackend des(backend_config({}));
  World world(des, {});
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    world.send_control(0, 1, [&order, i] { order.push_back(i); });
  }
  des.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(World, DpuResourceOnlyWhenEnabled) {
  backend::DesBackend des(backend_config({}));
  WorldOptions off;
  World w1(des, off);
  EXPECT_EQ(w1.rank(0).dpu(), nullptr);
  WorldOptions on;
  on.dpu_aggregation = true;
  World w2(des, on);
  EXPECT_NE(w2.rank(0).dpu(), nullptr);
}

TEST(World, FabricSharedAcrossRanks) {
  WorldOptions o;
  o.ranks = 3;
  backend::DesBackend des(backend_config(o));
  World world(des, o);
  EXPECT_EQ(world.fab().node_count(), 3);
  EXPECT_EQ(&world.fab(), &des.transport());
  EXPECT_EQ(&world.engine(), &des.engine());
  EXPECT_EQ(&world.backend(), &des);
  EXPECT_EQ(&world.rank(0).world(), &world);
}

TEST(World, DoorbellIsPerRank) {
  WorldOptions o;
  o.ranks = 2;
  backend::DesBackend des(backend_config(o));
  World world(des, o);
  world.rank(0).doorbell().request(100, [](Time, Time) {});
  des.run_until_idle();
  EXPECT_EQ(world.rank(0).doorbell().busy_time(), 100);
  EXPECT_EQ(world.rank(1).doorbell().busy_time(), 0);
}

TEST(World, BackendConfigCarriesNicAndCopyMode) {
  WorldOptions o;
  o.nic.wire.G *= 2.0;  // half the link rate
  o.copy_data = false;
  o.faults.drop_rate = 0.5;
  const backend::Config c = backend_config(o);
  EXPECT_EQ(c.nic.wire.G, o.nic.wire.G);
  EXPECT_FALSE(c.copy_data);
  // Faults are installed by the World constructor, not the backend.
  EXPECT_FALSE(c.faults.enabled());
  backend::DesBackend des(c);
  World world(des, o);
  EXPECT_FALSE(des.transport().copies_data());
  EXPECT_EQ(des.transport().fault_plan().config().drop_rate, 0.5);
}

TEST(WorldDeath, CopyModeMustMatchTheBackend) {
  // A benchmark world (copy_data = false) over a default backend would
  // copy payload bytes it never asked for, into buffers that may not be
  // mapped; the constructor refuses the pair.
  WorldOptions quiet;
  quiet.copy_data = false;
  EXPECT_DEATH(
      {
        backend::DesBackend des(backend::Config{});
        World world(des, quiet);
      },
      "copy_data disagrees with the backend");
  EXPECT_DEATH(
      {
        backend::DesBackend des(backend_config(quiet));
        World world(des, WorldOptions{});
      },
      "copy_data disagrees with the backend");
}

}  // namespace
}  // namespace partib::mpi
