// Replica placement and the exported routing table for the serving fleet.
//
// Replication turns the router's one-home-per-key placement into an ordered
// *replica set*: every (tenant, model) key hashes to one of a fixed number
// of routing slots, and each slot rendezvous-hashes to the top-R live
// shards (highest score first). The slot indirection is what makes the
// placement exportable — the full slot -> replica-set table is finite and
// enumerable, so an external balancer can mirror placement exactly by
// hashing the key to a slot and reading the row, instead of re-implementing
// the scoring walk per key. Rendezvous scoring keeps disruption minimal:
// removing a shard only remaps the slots whose replica set contained it,
// and re-adding it restores the original table bit-for-bit.
//
// RoutingTable is the versioned snapshot (`mocha.routing.v1`) the router
// exports atomically on every ring edit: an epoch counter (bumped exactly
// once per ring membership change), per-shard serving state, the per-model
// slot tables, and a bounded history of recent edits. Everything in it is a
// pure function of the ring-edit sequence and the registered models — no
// clocks, no load signals — which is what makes the snapshot sequence
// byte-deterministic under a fixed kill/heal schedule. The Healthy-vs-
// Degraded distinction is deliberately quantized to a `serving` bit: it is
// a timing-derived advisory signal that would break that contract, and a
// balancer can only act on in-ring-or-not anyway (the full four-state
// machine is exported as metrics gauges instead).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mocha::serve {

/// Routing slot for a placement key ("tenant|model"): FNV-1a of the key
/// reduced mod `slots`. The contract external balancers implement.
int routing_slot(std::string_view key, int slots);

/// Ordered replica set for (model, slot) over the serving shard ids
/// `members`: the min(replicas, members) distinct shards with the highest
/// rendezvous scores, best first, ties broken toward the lower shard id.
/// Pure and deterministic — same inputs, same set, independent of member
/// order.
std::vector<int> rendezvous_replicas(std::string_view model, int slot,
                                     const std::vector<int>& members,
                                     int replicas);

/// The exported routing table (schema "mocha.routing.v1").
struct RoutingTable {
  /// Bounded edit-history window kept in every snapshot.
  static constexpr std::size_t kMaxEdits = 64;

  /// Ring-edit counter: bumped exactly once per shard add/remove. Epoch 0
  /// is the initial table (fleet construction + model registration).
  std::uint64_t epoch = 0;
  int slots = 64;

  struct Shard {
    int id = -1;
    /// Serving (Healthy or Degraded) right now: the router's membership
    /// bit. See the header comment for why this is a bit, not the
    /// four-state name.
    bool serving = false;
  };
  std::vector<Shard> shards;

  struct Model {
    std::string name;
    /// Configured replica-set size R (the per-slot sets hold
    /// min(R, live shards) entries).
    int replicas = 1;
    /// slot index -> ordered replica set, best shard first.
    std::vector<std::vector<int>> slot_replicas;
  };
  std::vector<Model> models;

  struct Edit {
    std::uint64_t epoch = 0;
    int shard = -1;
    /// true = shard left the ring (quarantine), false = readmitted.
    bool removed = false;
  };
  /// Most recent ring edits, oldest first, capped at kMaxEdits.
  std::vector<Edit> edits;

  const Model* find_model(std::string_view name) const;

  /// Serializes the full table as one "mocha.routing.v1" JSON document.
  std::string to_json() const;

  /// Parses and validates a serialized table. Throws util::CheckFailure on
  /// anything malformed — wrong schema, missing keys, out-of-range or
  /// non-integral numbers, slot rows of the wrong arity. Never crashes on
  /// byte noise (the routing fuzz test enforces this).
  static RoutingTable from_json(std::string_view text);
};

bool operator==(const RoutingTable::Shard& a, const RoutingTable::Shard& b);
bool operator==(const RoutingTable::Model& a, const RoutingTable::Model& b);
bool operator==(const RoutingTable::Edit& a, const RoutingTable::Edit& b);
bool operator==(const RoutingTable& a, const RoutingTable& b);

}  // namespace mocha::serve
