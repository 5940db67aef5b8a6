#include "coherence/address_map.hpp"

#include "cpu/workload.hpp"

namespace rc {

AddressMap::AddressMap(const Topology* topo, int partition_side)
    : topo_(topo), pside_(partition_side) {
  parts_.resize(static_cast<std::size_t>(num_partitions()));
  if (!partitioned()) {
    for (NodeId n = 0; n < topo_->num_nodes(); ++n) parts_[0].push_back(n);
    return;
  }
  const int ppr = partitions_per_row();
  for (int p = 0; p < num_partitions(); ++p) {
    const int px = (p % ppr) * pside_;
    const int py = (p / ppr) * pside_;
    for (int y = py; y < py + pside_; ++y)
      for (int x = px; x < px + pside_; ++x)
        parts_[static_cast<std::size_t>(p)].push_back(topo_->node_at({x, y}));
  }
}

int AddressMap::partition_of_addr(Addr addr) const {
  if (!partitioned()) return 0;
  if (addr >= kMigratoryBase)
    return static_cast<int>((addr - kMigratoryBase) / kPartitionSharedSpan) %
           num_partitions();
  if (addr >= kSharedBase)
    return static_cast<int>((addr - kSharedBase) / kPartitionSharedSpan) %
           num_partitions();
  if (addr >= kPrivateBase) {
    auto core = static_cast<NodeId>((addr - kPrivateBase) / kPrivateStride);
    if (core < topo_->num_nodes()) return partition_of(core);
  }
  return 0;
}

NodeId AddressMap::home_l2(Addr addr) const {
  if (!partitioned())
    return static_cast<NodeId>((addr / kLineBytes) % topo_->num_nodes());
  const auto& nodes = partition_nodes(partition_of_addr(addr));
  return nodes[(addr / kLineBytes) % nodes.size()];
}

}  // namespace rc
