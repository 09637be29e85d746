// The road not taken: dynamic local address allocation under churn.
//
// §2.2/2.3 weighs RETRI against the obvious alternative — a protocol that
// assigns each node a short, locally unique address (claim, listen for
// defenses, retry on conflict). This example runs that protocol over the
// simulated radio so you can watch what it costs: every join pays claim
// frames and listen time, every conflicting claim pays again, and all of
// it is overhead a RETRI network never transmits.
//
// The demo brings up ten nodes, forces a churn storm (half the nodes
// rebooting), and prints the ledger: attempts, conflicts, defenses,
// acquisition delays, and control bits — then asks the analytic model what
// the same network spends under AFF for the equivalent workload.
//
//   $ ./address_allocation
#include <cstdio>
#include <memory>
#include <vector>

#include "core/model.hpp"
#include "net/dynamic_alloc.hpp"
#include "radio/radio.hpp"
#include "sim/medium.hpp"

using namespace retri;

namespace {

constexpr std::size_t kNodes = 10;
constexpr unsigned kAddrBits = 6;  // 64 addresses: roomy but not global

struct Station {
  Station(sim::BroadcastMedium& medium, sim::NodeId id)
      : radio(std::make_unique<radio::Radio>(medium, id, radio::RadioConfig{},
                                             radio::EnergyModel::rpc_like(),
                                             1000 + id)),
        node(std::make_unique<net::DynAllocNode>(
            *radio, net::DynAllocConfig{.addr_bits = kAddrBits}, 2000 + id)) {}

  std::unique_ptr<radio::Radio> radio;
  std::unique_ptr<net::DynAllocNode> node;
};

}  // namespace

int main() {
  sim::Simulator sim;
  sim::BroadcastMedium medium(sim, sim::Topology::full_mesh(kNodes), {}, 77);

  std::vector<Station> stations;
  stations.reserve(kNodes);
  for (sim::NodeId i = 0; i < kNodes; ++i) stations.emplace_back(medium, i);

  // Phase 1: cold start — everyone claims at once.
  std::puts("phase 1: cold start, 10 nodes claim simultaneously");
  for (auto& s : stations) s.node->start();
  sim.run_until(sim::TimePoint::origin() + sim::Duration::seconds(5));

  for (std::size_t i = 0; i < stations.size(); ++i) {
    const auto& n = *stations[i].node;
    std::printf("  node %zu: addr %2llu after %u attempt(s), %.0f ms\n", i,
                static_cast<unsigned long long>(n.address().value()),
                static_cast<unsigned>(n.stats().attempts),
                n.acquisition_delay().to_seconds() * 1e3);
  }

  // Phase 2: churn storm — five nodes reboot, one per second.
  std::puts("\nphase 2: churn storm, nodes 0-4 reboot one per second");
  for (std::size_t i = 0; i < 5; ++i) {
    sim.schedule_after(sim::Duration::seconds(static_cast<std::int64_t>(i + 1)),
                       [&stations, i]() {
                         stations[i].node->release();
                         stations[i].node->start();
                       });
  }
  sim.run_until(sim::TimePoint::origin() + sim::Duration::seconds(15));

  std::uint64_t claims = 0;
  std::uint64_t defends = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t control_bits = 0;
  for (const auto& s : stations) {
    claims += s.node->stats().claims_sent;
    defends += s.node->stats().defends_sent;
    conflicts += s.node->stats().conflicts;
    control_bits += s.node->stats().control_bits_sent;
  }
  std::printf("\nledger: %llu claims, %llu defends, %llu conflicts, "
              "%llu control bits on air\n",
              static_cast<unsigned long long>(claims),
              static_cast<unsigned long long>(defends),
              static_cast<unsigned long long>(conflicts),
              static_cast<unsigned long long>(control_bits));

  // What would the addresses have bought? Suppose each node now sends one
  // 16-bit reading per 10 s for an hour with its 6-bit address as header.
  const double readings = kNodes * 3600.0 / 10.0;
  const double data_bits = readings * 16.0;
  const double header_bits = readings * kAddrBits;
  const double alloc_efficiency =
      data_bits / (data_bits + header_bits + static_cast<double>(control_bits));
  const double aff_efficiency =
      core::model::e_aff(16.0, kAddrBits, static_cast<double>(kNodes));

  std::printf("\none hour of readings at this churn level:\n");
  std::printf("  assigned-address efficiency: %.1f%% (headers + allocation "
              "overhead)\n",
              alloc_efficiency * 100.0);
  std::printf("  AFF efficiency, same 6-bit header at T=%zu: %.1f%% "
              "(collision tax only)\n",
              kNodes, aff_efficiency * 100.0);

  if (alloc_efficiency > aff_efficiency) {
    std::puts("\nat this gentle churn the assigned addresses amortize and WIN —");
    std::puts("exactly the paper's caveat: \"in a static system, the work done");
    std::puts("at the beginning ... is amortized over all the work done ...");
    std::puts("thereafter\" (§2.3). The argument for RETRI is about dynamics:");
    std::puts("crank the churn (retri_bench --repro dynamic_alloc) and the");
    std::puts("allocation overhead swamps the low data rate while AFF's cost");
    std::puts("stays flat.");
  } else {
    std::puts("\nallocation overhead already exceeds the collision tax here;");
    std::puts("see retri_bench --repro dynamic_alloc for the full churn sweep.");
  }
  return 0;
}
