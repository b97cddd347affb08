#include "mpi/world.hpp"

#include "mpi/conn.hpp"

namespace partib::mpi {

Rank::Rank(World& world, int id, fabric::NodeId node, verbs::Context& ctx)
    : world_(world),
      id_(id),
      node_(node),
      ctx_(ctx),
      pd_(&ctx.alloc_pd()),
      cpu_(world.engine(), kCoresPerRank),
      doorbell_(world.engine(), 1) {
  if (world.options().dpu_aggregation) {
    dpu_ = std::make_unique<sim::FifoResource>(world.engine(), 1);
  }
}

Rank::~Rank() = default;

ConnectionManager& Rank::connections() {
  if (conn_ == nullptr) conn_ = std::make_unique<ConnectionManager>(*this);
  return *conn_;
}

backend::Config backend_config(const WorldOptions& options) {
  backend::Config cfg;
  cfg.nic = options.nic;
  cfg.copy_data = options.copy_data;
  return cfg;
}

World::World(backend::Backend& backend, WorldOptions options)
    : backend_(backend),
      engine_(backend.engine()),
      transport_(backend.transport()),
      options_(options) {
  PARTIB_ASSERT(options.ranks > 0);
  PARTIB_ASSERT_MSG(options.copy_data == transport_.copies_data(),
                    "WorldOptions::copy_data disagrees with the backend; "
                    "build it from mpi::backend_config(options)");
  if (options_.faults.enabled()) {
    transport_.set_fault_plan(fabric::FaultPlan(options_.faults));
  }
  device_ = std::make_unique<verbs::Device>(transport_);
  for (int i = 0; i < options_.ranks; ++i) {
    const fabric::NodeId node = transport_.add_node();
    verbs::Context& ctx = device_->open(node);
    ranks_.push_back(std::make_unique<Rank>(*this, i, node, ctx));
  }
}

void World::send_control(int from, int to, std::function<void()> deliver) {
  PARTIB_ASSERT(from >= 0 && from < size() && to >= 0 && to < size());
  transport_.send_control(rank(from).node(), rank(to).node(),
                          std::move(deliver));
}

}  // namespace partib::mpi
