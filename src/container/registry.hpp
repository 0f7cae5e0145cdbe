// Content-addressed image registry (the §VIII "Rattrap on Docker" future
// work).
//
// Docker distributes images as stacks of content-addressed layers; a host
// pulling an image transfers only the layers its local store lacks.  For
// Rattrap this is the distribution story of the Shared Resource Layer:
// the customized system image is one shared base layer every cloud node
// pulls once, with tiny per-variant layers on top — "the real
// just-in-time provision of Cloud Android Container".
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fs/layer.hpp"

namespace rattrap::container {

/// Content digest of a layer (deterministic function of its entries).
using Digest = std::uint64_t;

/// Computes a layer's digest from its (path, kind, size) entries; two
/// layers with identical contents hash identically regardless of name.
[[nodiscard]] Digest layer_digest(const fs::Layer& layer);

/// An image: a named, ordered stack of layer digests (bottom-most first).
struct ImageManifest {
  std::string reference;          ///< e.g. "rattrap/cac:4.4-offload"
  std::vector<Digest> layers;     ///< bottom-most first
  std::uint64_t total_bytes = 0;  ///< sum of layer bytes
};

/// A host's local content store: the layers it already holds.
class LayerStore {
 public:
  [[nodiscard]] bool has(Digest digest) const {
    return layers_.contains(digest);
  }

  /// Adds a layer (no-op when the digest is already present).
  void add(Digest digest, std::shared_ptr<const fs::Layer> layer);

  /// Adds an immutable layer by content and returns its digest. The
  /// digest is computed once per layer object: the memo is keyed on the
  /// object and holds it, so its address is never reused.
  Digest add(std::shared_ptr<const fs::Layer> layer);

  [[nodiscard]] std::shared_ptr<const fs::Layer> get(Digest digest) const;

  [[nodiscard]] std::size_t layer_count() const { return layers_.size(); }

  /// Bytes held (each stored layer counted once — the dedup property).
  [[nodiscard]] std::uint64_t stored_bytes() const;

 private:
  std::map<Digest, std::shared_ptr<const fs::Layer>> layers_;
  std::map<std::shared_ptr<const fs::Layer>, Digest> digests_;
};

/// Outcome of pulling an image into a local store.
struct PullResult {
  bool ok = false;
  std::uint64_t bytes_transferred = 0;  ///< layers the host lacked
  std::uint64_t bytes_deduplicated = 0; ///< layers already present
  std::vector<std::shared_ptr<const fs::Layer>> layers;  ///< bottom first
};

class ImageRegistry {
 public:
  /// Uploads a layer; returns its digest (idempotent).
  Digest push_layer(std::shared_ptr<const fs::Layer> layer);

  /// Publishes a manifest. Fails (false) when any referenced layer has
  /// not been pushed.
  bool push_image(std::string reference, std::vector<Digest> layers);

  [[nodiscard]] const ImageManifest* find(std::string_view reference) const;

  /// Pulls `reference` into `store`, transferring only missing layers.
  [[nodiscard]] PullResult pull(std::string_view reference,
                                LayerStore& store) const;

  [[nodiscard]] std::size_t image_count() const { return manifests_.size(); }
  [[nodiscard]] std::size_t layer_count() const { return blobs_.size(); }

  /// All published references (sorted).
  [[nodiscard]] std::vector<std::string> references() const;

 private:
  std::map<Digest, std::shared_ptr<const fs::Layer>> blobs_;
  std::map<std::string, ImageManifest, std::less<>> manifests_;
};

}  // namespace rattrap::container
