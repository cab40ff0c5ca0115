#include "serialize/checkpoint.h"

#include <optional>
#include <string_view>
#include <vector>

#include "serialize/binary_io.h"

namespace nnr::serialize {

namespace {

using detail::BufReader;
using detail::BufWriter;

constexpr std::string_view kMagic = "NNRCKPT1";
constexpr std::string_view kTrainMagic = "NNRTRNS1";
constexpr std::uint32_t kKindParam = 0;
constexpr std::uint32_t kKindBuffer = 1;
constexpr std::uint32_t kKindOptSlot = 2;

struct Entry {
  std::uint32_t kind;
  std::string name;
  tensor::Tensor* value;
};

void write_checkpoint_file(const std::string& path, const std::string& bytes) {
  if (!replace_file(path, bytes)) {
    throw CheckpointError("write failed: " + path);
  }
}

std::string read_checkpoint_file(const std::string& path) {
  std::optional<std::string> bytes = read_file(path);
  if (!bytes.has_value()) {
    throw CheckpointError("cannot open for reading: " + path);
  }
  return std::move(*bytes);
}

std::vector<Entry> collect_entries(nn::Model& model) {
  std::vector<Entry> entries;
  for (nn::Param* p : model.params()) {
    entries.push_back({kKindParam, p->name, &p->value});
  }
  for (const nn::NamedBuffer& b : model.buffers()) {
    entries.push_back({kKindBuffer, b.name, b.value});
  }
  return entries;
}

void write_entry(BufWriter& w, const Entry& e) {
  w.put(e.kind);
  w.put(static_cast<std::uint32_t>(e.name.size()));
  w.put_bytes(e.name.data(), e.name.size());
  const tensor::Shape& shape = e.value->shape();
  w.put(static_cast<std::uint32_t>(shape.rank()));
  for (int d = 0; d < shape.rank(); ++d) {
    w.put(static_cast<std::int64_t>(shape[d]));
  }
  w.put_bytes(e.value->raw(),
              static_cast<std::size_t>(e.value->numel()) * sizeof(float));
}

void read_entry_into(BufReader& r, const Entry& e, std::size_t index) {
  const auto kind = r.get<std::uint32_t>();
  if (kind != e.kind) {
    throw CheckpointError("entry " + std::to_string(index) +
                          ": kind mismatch (param/buffer order differs)");
  }
  const std::string name = r.get_string(r.get<std::uint32_t>());
  if (name != e.name) {
    throw CheckpointError("entry " + std::to_string(index) + ": name '" +
                          name + "' does not match model entry '" + e.name +
                          "'");
  }
  const auto rank = r.get<std::uint32_t>();
  if (static_cast<int>(rank) != e.value->shape().rank()) {
    throw CheckpointError("entry " + std::to_string(index) + " ('" + name +
                          "'): rank mismatch");
  }
  for (std::uint32_t d = 0; d < rank; ++d) {
    const auto dim = r.get<std::int64_t>();
    if (dim != e.value->shape()[static_cast<int>(d)]) {
      throw CheckpointError("entry " + std::to_string(index) + " ('" + name +
                            "'): shape mismatch on axis " + std::to_string(d));
    }
  }
  r.get_bytes(e.value->raw(),
              static_cast<std::size_t>(e.value->numel()) * sizeof(float));
}

}  // namespace

void save_model(const std::string& path, nn::Model& model) {
  const std::vector<Entry> entries = collect_entries(model);
  BufWriter w(kMagic);
  w.put(static_cast<std::uint32_t>(entries.size()));
  for (const Entry& e : entries) write_entry(w, e);
  write_checkpoint_file(path, w.finish());
}

void load_model(const std::string& path, nn::Model& model) {
  const std::vector<Entry> entries = collect_entries(model);
  const std::string bytes = read_checkpoint_file(path);
  BufReader r(bytes, kMagic, path);
  const auto count = r.get<std::uint32_t>();
  if (count != entries.size()) {
    throw CheckpointError(
        "checkpoint holds " + std::to_string(count) + " entries but model has " +
        std::to_string(entries.size()));
  }
  for (std::size_t i = 0; i < entries.size(); ++i) {
    read_entry_into(r, entries[i], i);
  }
  if (!r.exhausted()) {
    throw CheckpointError("trailing bytes after final entry: " + path);
  }
}

std::size_t checkpoint_entry_count(nn::Model& model) {
  return collect_entries(model).size();
}

namespace {

void write_slot(BufWriter& w, const std::string& name,
                const std::vector<float>& slot) {
  w.put(kKindOptSlot);
  w.put(static_cast<std::uint32_t>(name.size()));
  w.put_bytes(name.data(), name.size());
  w.put(static_cast<std::uint32_t>(1));  // rank
  w.put(static_cast<std::int64_t>(slot.size()));
  w.put_bytes(slot.data(), slot.size() * sizeof(float));
}

void read_slot_into(BufReader& r, const std::string& expected_name,
                    std::vector<float>& slot, std::size_t index) {
  const auto kind = r.get<std::uint32_t>();
  if (kind != kKindOptSlot) {
    throw CheckpointError("entry " + std::to_string(index) +
                          ": expected an optimizer slot");
  }
  const std::string name = r.get_string(r.get<std::uint32_t>());
  if (name != expected_name) {
    throw CheckpointError("optimizer slot '" + name +
                          "' does not match expected '" + expected_name +
                          "' (different optimizer type or model)");
  }
  const auto rank = r.get<std::uint32_t>();
  const auto dim = r.get<std::int64_t>();
  if (rank != 1 || dim != static_cast<std::int64_t>(slot.size())) {
    throw CheckpointError("optimizer slot '" + name + "': size mismatch");
  }
  r.get_bytes(slot.data(), slot.size() * sizeof(float));
}

}  // namespace

void save_training_state(const std::string& path, nn::Model& model,
                         opt::Optimizer& optimizer) {
  const std::vector<Entry> entries = collect_entries(model);
  const auto slots = optimizer.mutable_state();
  BufWriter w(kTrainMagic);
  w.put(static_cast<std::uint64_t>(optimizer.steps_taken()));
  w.put(static_cast<std::uint32_t>(entries.size()));
  w.put(static_cast<std::uint32_t>(slots.size()));
  for (const Entry& e : entries) write_entry(w, e);
  for (const auto& [name, slot] : slots) write_slot(w, name, *slot);
  write_checkpoint_file(path, w.finish());
}

void load_training_state(const std::string& path, nn::Model& model,
                         opt::Optimizer& optimizer) {
  const std::vector<Entry> entries = collect_entries(model);
  const auto slots = optimizer.mutable_state();
  const std::string bytes = read_checkpoint_file(path);
  BufReader r(bytes, kTrainMagic, path);
  const auto steps = r.get<std::uint64_t>();
  const auto entry_count = r.get<std::uint32_t>();
  const auto slot_count = r.get<std::uint32_t>();
  if (entry_count != entries.size()) {
    throw CheckpointError("training state holds " +
                          std::to_string(entry_count) +
                          " model entries but model has " +
                          std::to_string(entries.size()));
  }
  if (slot_count != slots.size()) {
    throw CheckpointError("training state holds " +
                          std::to_string(slot_count) +
                          " optimizer slots but optimizer has " +
                          std::to_string(slots.size()));
  }
  for (std::size_t i = 0; i < entries.size(); ++i) {
    read_entry_into(r, entries[i], i);
  }
  for (std::size_t i = 0; i < slots.size(); ++i) {
    read_slot_into(r, slots[i].first, *slots[i].second, i);
  }
  if (!r.exhausted()) {
    throw CheckpointError("trailing bytes after final entry: " + path);
  }
  optimizer.set_steps_taken(static_cast<std::int64_t>(steps));
}

}  // namespace nnr::serialize
