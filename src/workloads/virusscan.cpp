#include "workloads/virusscan.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <deque>

namespace rattrap::workloads {

AhoCorasick::AhoCorasick(const std::vector<std::string>& patterns)
    : patterns_(patterns.size()) {
  nodes_.emplace_back();  // root
  // Goto function (trie).
  for (const std::string& pattern : patterns) {
    std::int32_t node = 0;
    for (const char c : pattern) {
      const auto byte = static_cast<std::uint8_t>(c);
      if (nodes_[static_cast<std::size_t>(node)].next[byte] < 0) {
        nodes_[static_cast<std::size_t>(node)].next[byte] =
            static_cast<std::int32_t>(nodes_.size());
        nodes_.emplace_back();
      }
      node = nodes_[static_cast<std::size_t>(node)].next[byte];
    }
    ++nodes_[static_cast<std::size_t>(node)].terminal;
  }
  // Fail function (BFS); convert to a full transition table as we go.
  std::deque<std::int32_t> queue;
  for (int c = 0; c < 256; ++c) {
    const std::int32_t child = nodes_[0].next[static_cast<std::size_t>(c)];
    if (child < 0) {
      nodes_[0].next[static_cast<std::size_t>(c)] = 0;
    } else {
      nodes_[static_cast<std::size_t>(child)].fail = 0;
      queue.push_back(child);
    }
  }
  while (!queue.empty()) {
    const std::int32_t node = queue.front();
    queue.pop_front();
    const std::int32_t fail = nodes_[static_cast<std::size_t>(node)].fail;
    nodes_[static_cast<std::size_t>(node)].terminal +=
        nodes_[static_cast<std::size_t>(fail)].terminal;
    for (int c = 0; c < 256; ++c) {
      const std::int32_t child =
          nodes_[static_cast<std::size_t>(node)].next[static_cast<std::size_t>(c)];
      if (child < 0) {
        nodes_[static_cast<std::size_t>(node)].next[static_cast<std::size_t>(c)] =
            nodes_[static_cast<std::size_t>(fail)]
                .next[static_cast<std::size_t>(c)];
      } else {
        nodes_[static_cast<std::size_t>(child)].fail =
            nodes_[static_cast<std::size_t>(fail)]
                .next[static_cast<std::size_t>(c)];
        queue.push_back(child);
      }
    }
  }
}

RATTRAP_KERNEL_ENTRY std::uint64_t AhoCorasick::scan(
    const std::vector<std::uint8_t>& data,
    std::uint64_t* transitions) const {
  std::uint64_t matches = 0;
  std::uint64_t steps = 0;
  std::int32_t node = 0;
  for (const std::uint8_t byte : data) {
    node = nodes_[static_cast<std::size_t>(node)].next[byte];
    ++steps;
    matches += nodes_[static_cast<std::size_t>(node)].terminal;
  }
  if (transitions != nullptr) *transitions += steps;
  return matches;
}

std::vector<std::uint64_t> make_file_tree(std::uint64_t total_bytes,
                                           std::uint64_t seed) {
  std::vector<std::uint64_t> files;
  sim::Rng rng(seed);
  std::uint64_t accumulated = 0;
  while (accumulated < total_bytes) {
    // Median ~140 KB with a heavy right tail — documents, small
    // executables and the occasional large archive.
    auto size = static_cast<std::uint64_t>(
        rng.lognormal(std::log(140.0 * 1024), 0.8));
    size = std::clamp<std::uint64_t>(size, 4 * 1024, 2 * 1024 * 1024);
    if (accumulated + size > total_bytes) {
      size = total_bytes - accumulated;
      if (size < 4 * 1024) {
        if (!files.empty()) files.back() += size;
        break;
      }
    }
    files.push_back(size);
    accumulated += size;
  }
  return files;
}

std::vector<std::string> make_signature_db(std::size_t count,
                                           std::uint64_t seed) {
  std::vector<std::string> db;
  db.reserve(count);
  sim::Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    const auto length = static_cast<std::size_t>(rng.uniform_int(8, 24));
    std::string sig(length, '\0');
    for (auto& c : sig) {
      // Bias away from 0x00 so random corpora rarely contain signatures
      // by accident (plants dominate the match count).
      c = static_cast<char>(rng.uniform_int(0x20, 0x7e));
    }
    db.push_back(std::move(sig));
  }
  return db;
}

std::vector<std::uint8_t> make_corpus(std::uint64_t bytes,
                                      const std::vector<std::string>& db,
                                      std::size_t infections,
                                      std::uint64_t seed) {
  std::vector<std::uint8_t> corpus(bytes);
  sim::Rng rng(seed);
  for (auto& b : corpus) {
    b = static_cast<std::uint8_t>(rng() & 0xff);
  }
  if (!db.empty() && bytes > 32) {
    for (std::size_t i = 0; i < infections; ++i) {
      const std::string& sig = db[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(db.size()) - 1))];
      const auto offset = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(bytes - sig.size()) - 1));
      for (std::size_t j = 0; j < sig.size(); ++j) {
        corpus[offset + j] = static_cast<std::uint8_t>(sig[j]);
      }
    }
  }
  return corpus;
}

const std::vector<std::string>& VirusScanWorkload::signature_db() {
  static const std::vector<std::string> db =
      make_signature_db(2000, 0x51c4a75ULL);
  return db;
}

AppProfile VirusScanWorkload::app() const {
  return AppProfile{"com.bench.virusscan", 1320 * 1024, 8};
}

TaskSpec VirusScanWorkload::make_task(sim::Rng& rng,
                                      std::uint32_t size_class) const {
  TaskSpec spec;
  spec.kind = Kind::kVirusScan;
  spec.seed = rng();
  spec.size_class = size_class;
  // Files to scan travel with the request; the paper's VirusScan moves the
  // most data of all workloads (~4.5–5 MB per request at class 1). The
  // target is a real file tree: io_ops is its actual file count.
  const double mb = rng.uniform(4.3, 4.7) * size_class;
  const auto tree = make_file_tree(
      static_cast<std::uint64_t>(mb * 1024 * 1024), rng());
  std::uint64_t total = 0;
  for (const auto file : tree) total += file;
  spec.input_file_bytes = total;
  spec.param_bytes = 4 * 1024;  // scan options + manifest
  spec.io_ops = static_cast<std::uint32_t>(tree.size());
  // Detailed scan report (~80 KB, Table II shows sizable downloads).
  spec.result_bytes = static_cast<std::uint64_t>(
      rng.uniform(70.0, 90.0) * 1024);
  return spec;
}

TaskResult VirusScanWorkload::execute(const TaskSpec& spec) const {
  assert(spec.kind == Kind::kVirusScan);
  static const AhoCorasick automaton(signature_db());
  // Scan a real buffer whose size is capped (the simulated I/O volume is
  // input_file_bytes; scanning cost scales linearly so a capped buffer
  // plus exact per-byte accounting keeps execution fast and faithful).
  constexpr std::uint64_t kMaxRealBytes = 1 * 1024 * 1024;
  const std::uint64_t real_bytes =
      std::min<std::uint64_t>(spec.input_file_bytes, kMaxRealBytes);
  const std::vector<std::uint8_t> corpus =
      make_corpus(real_bytes, signature_db(), 24, spec.seed);
  std::uint64_t transitions = 0;
  const std::uint64_t matches = automaton.scan(corpus, &transitions);
  TaskResult result;
  // Work scales with the declared corpus size, metered by the real rate.
  const double scale = static_cast<double>(spec.input_file_bytes) /
                       static_cast<double>(real_bytes);
  result.units.compute =
      static_cast<std::uint64_t>(static_cast<double>(transitions) * scale);
  result.units.io_bytes = spec.input_file_bytes;
  result.checksum = matches ^ (transitions << 20);
  return result;
}

}  // namespace rattrap::workloads
