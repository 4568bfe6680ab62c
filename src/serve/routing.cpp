#include "serve/routing.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"

namespace mocha::serve {

namespace {

/// FNV-1a 64-bit: the key hash behind routing slots and model scores.
std::uint64_t fnv1a(std::string_view key) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : key) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// SplitMix64 finalizer: spreads the (model, slot, shard) lattice into
/// rendezvous scores.
std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

std::uint64_t rendezvous_score(std::uint64_t model_hash, int slot, int shard) {
  const std::uint64_t slot_h =
      mix(0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(slot) + 1));
  const std::uint64_t shard_h =
      mix(0xc2b2ae3d27d4eb4full * (static_cast<std::uint64_t>(shard) + 1));
  return mix(model_hash ^ slot_h ^ shard_h);
}

/// Strict integer extraction: the value must be a JSON number, integral, and
/// inside [lo, hi]. Range is enforced *before* the cast so fuzzed snapshots
/// (e.g. 1e300 spliced into a shard id) can never hit double->int UB.
std::int64_t as_int(const util::JsonValue& v, std::int64_t lo, std::int64_t hi,
                    const char* what) {
  MOCHA_CHECK(v.kind == util::JsonValue::Kind::Number,
              "routing: " << what << " must be a number");
  const double d = v.number;
  MOCHA_CHECK(std::isfinite(d) && d >= static_cast<double>(lo) &&
                  d <= static_cast<double>(hi),
              "routing: " << what << " out of range");
  const auto i = static_cast<std::int64_t>(d);
  MOCHA_CHECK(static_cast<double>(i) == d,
              "routing: " << what << " must be integral");
  return i;
}

bool as_bool(const util::JsonValue& v, const char* what) {
  MOCHA_CHECK(v.kind == util::JsonValue::Kind::Bool,
              "routing: " << what << " must be a boolean");
  return v.boolean;
}

const std::string& as_string(const util::JsonValue& v, const char* what) {
  MOCHA_CHECK(v.kind == util::JsonValue::Kind::String,
              "routing: " << what << " must be a string");
  return v.string;
}

/// Epochs are compared after a double round-trip, so keep them inside the
/// 2^53 range where every integer is exactly representable.
constexpr std::int64_t kMaxEpoch = (std::int64_t{1} << 53) - 1;
constexpr std::int64_t kMaxShardId = 1 << 20;
constexpr std::int64_t kMaxSlots = 1 << 16;

}  // namespace

int routing_slot(std::string_view key, int slots) {
  MOCHA_CHECK(slots >= 1, "routing_slot needs >= 1 slot");
  return static_cast<int>(fnv1a(key) % static_cast<std::uint64_t>(slots));
}

std::vector<int> rendezvous_replicas(std::string_view model, int slot,
                                     const std::vector<int>& members,
                                     int replicas) {
  MOCHA_CHECK(replicas >= 1, "replica set size must be >= 1");
  const std::uint64_t model_hash = fnv1a(model);
  struct Scored {
    std::uint64_t score;
    int shard;
  };
  std::vector<Scored> scored;
  scored.reserve(members.size());
  for (const int shard : members) {
    scored.push_back({rendezvous_score(model_hash, slot, shard), shard});
  }
  std::sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.shard < b.shard;
  });
  const std::size_t take =
      std::min<std::size_t>(scored.size(), static_cast<std::size_t>(replicas));
  std::vector<int> out;
  out.reserve(take);
  for (std::size_t i = 0; i < take; ++i) out.push_back(scored[i].shard);
  return out;
}

const RoutingTable::Model* RoutingTable::find_model(
    std::string_view name) const {
  for (const Model& m : models) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string RoutingTable::to_json() const {
  util::JsonWriter json;
  json.begin_object();
  json.key("schema").value("mocha.routing.v1");
  json.key("epoch").value(epoch);
  json.key("slots").value(slots);
  json.key("shards").begin_array();
  for (const Shard& s : shards) {
    json.begin_object();
    json.key("id").value(s.id);
    json.key("serving").value(s.serving);
    json.end_object();
  }
  json.end_array();
  json.key("models").begin_array();
  for (const Model& m : models) {
    json.begin_object();
    json.key("model").value(m.name);
    json.key("replicas").value(m.replicas);
    json.key("slot_replicas").begin_array();
    for (const std::vector<int>& row : m.slot_replicas) {
      json.begin_array();
      for (const int shard : row) json.value(shard);
      json.end_array();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.key("edits").begin_array();
  for (const Edit& e : edits) {
    json.begin_object();
    json.key("epoch").value(e.epoch);
    json.key("shard").value(e.shard);
    json.key("op").value(e.removed ? "remove" : "add");
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

RoutingTable RoutingTable::from_json(std::string_view text) {
  const util::JsonValue doc = util::parse_json(text);
  MOCHA_CHECK(doc.is_object(), "routing: document must be an object");
  MOCHA_CHECK(as_string(doc.at("schema"), "schema") == "mocha.routing.v1",
              "routing: unsupported schema");

  RoutingTable table;
  table.epoch =
      static_cast<std::uint64_t>(as_int(doc.at("epoch"), 0, kMaxEpoch, "epoch"));
  table.slots = static_cast<int>(as_int(doc.at("slots"), 1, kMaxSlots, "slots"));

  const util::JsonValue& shards = doc.at("shards");
  MOCHA_CHECK(shards.is_array(), "routing: shards must be an array");
  std::vector<char> known;  // shard id -> declared, for replica validation
  for (const util::JsonValue& entry : shards.array) {
    MOCHA_CHECK(entry.is_object(), "routing: shard entry must be an object");
    Shard s;
    s.id = static_cast<int>(as_int(entry.at("id"), 0, kMaxShardId, "shard id"));
    s.serving = as_bool(entry.at("serving"), "serving");
    if (known.size() <= static_cast<std::size_t>(s.id)) {
      known.resize(static_cast<std::size_t>(s.id) + 1, 0);
    }
    MOCHA_CHECK(known[static_cast<std::size_t>(s.id)] == 0,
                "routing: duplicate shard id " << s.id);
    known[static_cast<std::size_t>(s.id)] = 1;
    table.shards.push_back(s);
  }

  const util::JsonValue& models = doc.at("models");
  MOCHA_CHECK(models.is_array(), "routing: models must be an array");
  for (const util::JsonValue& entry : models.array) {
    MOCHA_CHECK(entry.is_object(), "routing: model entry must be an object");
    Model m;
    m.name = as_string(entry.at("model"), "model name");
    m.replicas = static_cast<int>(
        as_int(entry.at("replicas"), 1, kMaxShardId, "replicas"));
    const util::JsonValue& rows = entry.at("slot_replicas");
    MOCHA_CHECK(rows.is_array(), "routing: slot_replicas must be an array");
    MOCHA_CHECK(rows.array.size() == static_cast<std::size_t>(table.slots),
                "routing: slot_replicas must have one row per slot");
    for (const util::JsonValue& row : rows.array) {
      MOCHA_CHECK(row.is_array(), "routing: slot row must be an array");
      MOCHA_CHECK(row.array.size() <= static_cast<std::size_t>(m.replicas),
                  "routing: slot row wider than the replica-set size");
      std::vector<int> replicas;
      for (const util::JsonValue& v : row.array) {
        const int id =
            static_cast<int>(as_int(v, 0, kMaxShardId, "replica shard id"));
        MOCHA_CHECK(static_cast<std::size_t>(id) < known.size() &&
                        known[static_cast<std::size_t>(id)] != 0,
                    "routing: replica references undeclared shard " << id);
        MOCHA_CHECK(std::find(replicas.begin(), replicas.end(), id) ==
                        replicas.end(),
                    "routing: duplicate replica in slot row");
        replicas.push_back(id);
      }
      m.slot_replicas.push_back(std::move(replicas));
    }
    table.models.push_back(std::move(m));
  }

  const util::JsonValue& edits = doc.at("edits");
  MOCHA_CHECK(edits.is_array(), "routing: edits must be an array");
  MOCHA_CHECK(edits.array.size() <= kMaxEdits,
              "routing: edit history wider than the window");
  for (const util::JsonValue& entry : edits.array) {
    MOCHA_CHECK(entry.is_object(), "routing: edit entry must be an object");
    Edit e;
    e.epoch = static_cast<std::uint64_t>(
        as_int(entry.at("epoch"), 0, kMaxEpoch, "edit epoch"));
    e.shard = static_cast<int>(
        as_int(entry.at("shard"), 0, kMaxShardId, "edit shard"));
    const std::string& op = as_string(entry.at("op"), "edit op");
    MOCHA_CHECK(op == "remove" || op == "add", "routing: unknown edit op");
    e.removed = op == "remove";
    table.edits.push_back(e);
  }
  return table;
}

bool operator==(const RoutingTable::Shard& a, const RoutingTable::Shard& b) {
  return a.id == b.id && a.serving == b.serving;
}

bool operator==(const RoutingTable::Model& a, const RoutingTable::Model& b) {
  return a.name == b.name && a.replicas == b.replicas &&
         a.slot_replicas == b.slot_replicas;
}

bool operator==(const RoutingTable::Edit& a, const RoutingTable::Edit& b) {
  return a.epoch == b.epoch && a.shard == b.shard && a.removed == b.removed;
}

bool operator==(const RoutingTable& a, const RoutingTable& b) {
  return a.epoch == b.epoch && a.slots == b.slots && a.shards == b.shards &&
         a.models == b.models && a.edits == b.edits;
}

}  // namespace mocha::serve
