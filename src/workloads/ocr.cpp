#include "workloads/ocr.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace rattrap::workloads {
namespace {

/// Hamming distance between two glyph bitmaps (64 pixels).
std::uint32_t glyph_distance(const Glyph& a, const Glyph& b) {
  std::uint32_t d = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    d += static_cast<std::uint32_t>(
        std::popcount(static_cast<unsigned>(a[i] ^ b[i])));
  }
  return d;
}

/// Draws a stroke-like glyph: a few random walks over the 8×8 grid, the
/// way real letterforms are connected strokes rather than pixel noise.
/// Stroke glyphs are what make the majority-filter denoiser effective.
Glyph stroke_glyph(sim::Rng& rng) {
  Glyph glyph{};
  auto set = [&](int row, int col) {
    if (row < 0 || row > 7 || col < 0 || col > 7) return;
    glyph[static_cast<std::size_t>(row)] = static_cast<std::uint8_t>(
        glyph[static_cast<std::size_t>(row)] | (1u << col));
  };
  const int strokes = static_cast<int>(rng.uniform_int(2, 3));
  for (int stroke = 0; stroke < strokes; ++stroke) {
    int row = static_cast<int>(rng.uniform_int(1, 6));
    int col = static_cast<int>(rng.uniform_int(1, 6));
    // Mostly-straight walk: pick a heading, wobble occasionally. Each
    // step paints a 2-pixel-wide segment so strokes survive filtering.
    int dr = static_cast<int>(rng.uniform_int(-1, 1));
    int dc = dr == 0 ? (rng.bernoulli(0.5) ? 1 : -1)
                     : static_cast<int>(rng.uniform_int(-1, 1));
    for (int step = 0; step < 9; ++step) {
      set(row, col);
      set(row, col + 1);  // stroke width 2
      if (rng.bernoulli(0.25)) {
        dr = static_cast<int>(rng.uniform_int(-1, 1));
        dc = static_cast<int>(rng.uniform_int(-1, 1));
        if (dr == 0 && dc == 0) dc = 1;
      }
      row = std::clamp(row + dr, 0, 7);
      col = std::clamp(col + dc, 0, 7);
    }
  }
  return glyph;
}

std::array<Glyph, kAlphabetSize> build_font() {
  // Deterministic procedural font of stroke glyphs; candidates closer
  // than a minimum Hamming separation are re-rolled so recognition is
  // well-posed.
  std::array<Glyph, kAlphabetSize> glyphs{};
  constexpr std::uint32_t kMinSeparation = 14;
  sim::Rng rng(0x0c2afe11);
  for (std::size_t i = 0; i < kAlphabetSize; ++i) {
    for (int attempt = 0;; ++attempt) {
      const Glyph candidate = stroke_glyph(rng);
      bool separated = true;
      for (std::size_t j = 0; j < i; ++j) {
        if (glyph_distance(candidate, glyphs[j]) < kMinSeparation) {
          separated = false;
          break;
        }
      }
      if (separated || attempt > 5000) {
        glyphs[i] = candidate;
        break;
      }
    }
  }
  return glyphs;
}

}  // namespace

const std::array<Glyph, kAlphabetSize>& font() {
  static const std::array<Glyph, kAlphabetSize> glyphs = build_font();
  return glyphs;
}

Page render_page(std::size_t columns, std::size_t rows, double noise,
                 std::uint64_t seed) {
  Page page;
  page.columns = columns;
  page.rows = rows;
  const std::size_t cells = columns * rows;
  page.truth.resize(cells);
  page.bitmaps.resize(cells);
  sim::Rng rng(seed);
  const auto& glyphs = font();
  for (std::size_t c = 0; c < cells; ++c) {
    const auto symbol = static_cast<std::uint8_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kAlphabetSize) - 1));
    page.truth[c] = symbol;
    Glyph rendered = glyphs[symbol];
    for (auto& row : rendered) {
      for (int bit = 0; bit < 8; ++bit) {
        if (rng.bernoulli(noise)) {
          row = static_cast<std::uint8_t>(row ^ (1u << bit));
        }
      }
    }
    page.bitmaps[c] = rendered;
  }
  return page;
}

Glyph denoise(const Glyph& glyph) {
  auto at = [&](int row, int col) -> int {
    if (row < 0 || row > 7 || col < 0 || col > 7) return 0;
    return (glyph[static_cast<std::size_t>(row)] >> col) & 1;
  };
  Glyph out{};
  for (int row = 0; row < 8; ++row) {
    for (int col = 0; col < 8; ++col) {
      int set = 0, total = 0;
      for (int dr = -1; dr <= 1; ++dr) {
        for (int dc = -1; dc <= 1; ++dc) {
          if (row + dr < 0 || row + dr > 7 || col + dc < 0 ||
              col + dc > 7) {
            continue;
          }
          ++total;
          set += at(row + dr, col + dc);
        }
      }
      // Majority vote, biased to keep the centre on a tie (preserves
      // thin strokes at glyph borders).
      const bool keep = 2 * set > total ||
                        (2 * set == total && at(row, col) == 1);
      if (keep) {
        out[static_cast<std::size_t>(row)] =
            static_cast<std::uint8_t>(out[static_cast<std::size_t>(row)] |
                                      (1u << col));
      }
    }
  }
  return out;
}

RATTRAP_KERNEL_ENTRY OcrOutcome recognize(const Page& page,
                                          bool with_denoise) {
  OcrOutcome out;
  const std::size_t cells = page.columns * page.rows;
  out.decoded.resize(cells);
  const auto& glyphs = font();
  for (std::size_t c = 0; c < cells; ++c) {
    const Glyph bitmap =
        with_denoise ? denoise(page.bitmaps[c]) : page.bitmaps[c];
    if (with_denoise) out.pixel_ops += 64 * 9;  // the filter's window scan
    std::uint32_t best = UINT32_MAX;
    std::uint8_t best_symbol = 0;
    for (std::size_t g = 0; g < kAlphabetSize; ++g) {
      const std::uint32_t d = glyph_distance(bitmap, glyphs[g]);
      if (d < best) {
        best = d;
        best_symbol = static_cast<std::uint8_t>(g);
      }
    }
    out.decoded[c] = best_symbol;
    out.pixel_ops += kAlphabetSize * 64;  // 64 pixels per template compare
    if (best_symbol == page.truth[c]) ++out.correct;
  }
  return out;
}

AppProfile OcrWorkload::app() const {
  // The OCR app's code is small relative to the images it ships (§VI-C
  // notes OCR/VirusScan have small app sizes vs parameter data).
  return AppProfile{"com.bench.ocr", 1152 * 1024, 6};
}

TaskSpec OcrWorkload::make_task(sim::Rng& rng,
                                std::uint32_t size_class) const {
  TaskSpec spec;
  spec.kind = Kind::kOcr;
  spec.seed = rng();
  spec.size_class = size_class;
  // A photographed document page: ~1.3–1.55 MB JPEG. The image size does
  // not scale with size_class (which scales recognition complexity);
  // Table II's OCR upload volume is ~29 MB for 20 requests.
  const double mb = rng.uniform(1.30, 1.55);
  spec.input_file_bytes = static_cast<std::uint64_t>(mb * 1024 * 1024);
  spec.param_bytes = 2 * 1024;  // language/config options
  spec.io_ops = 1;              // one image file read
  // Decoded text plus layout boxes.
  spec.result_bytes = 6 * 1024 + static_cast<std::uint64_t>(rng.uniform(
                                      0.0, 3.0 * 1024));
  return spec;
}

TaskResult OcrWorkload::execute(const TaskSpec& spec) const {
  assert(spec.kind == Kind::kOcr);
  const std::size_t columns = 24 * spec.size_class;
  const std::size_t rows = 32 * spec.size_class;
  const Page page = render_page(columns, rows, 0.04, spec.seed);
  const OcrOutcome outcome = recognize(page);
  TaskResult result;
  result.units.compute = outcome.pixel_ops;
  result.units.io_bytes = spec.input_file_bytes;  // the image is read once
  // Checksum over the decoded text keeps execution honest in tests.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto s : outcome.decoded) {
    h ^= s;
    h *= 0x100000001b3ULL;
  }
  result.checksum = h ^ outcome.correct;
  return result;
}

}  // namespace rattrap::workloads
