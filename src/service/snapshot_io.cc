#include "service/snapshot_io.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "graph/graph_builder.h"
#include "signature/compact_signature.h"
#include "util/checksum.h"
#include "util/fault_injection.h"
#include "util/mmap_file.h"

namespace psi::service {

namespace {

constexpr char kMagic[4] = {'P', 'S', 'N', 'P'};

// Field offsets inside the 64-byte header (see snapshot_io.h).
constexpr size_t kOffMagic = 0;
constexpr size_t kOffVersion = 4;
constexpr size_t kOffMethod = 8;
constexpr size_t kOffDepth = 12;
constexpr size_t kOffDecay = 16;
constexpr size_t kOffFlags = 20;
constexpr size_t kOffNumNodes = 24;
constexpr size_t kOffNumEdges = 32;
constexpr size_t kOffNumLabels = 40;
constexpr size_t kOffNumSections = 48;
constexpr size_t kOffSigLabels = 52;
constexpr size_t kOffHeaderChecksum = 56;

constexpr uint32_t kFlagCompact = 1u << 0;
constexpr uint32_t kKnownFlags = kFlagCompact;

// The checksummed header prefix: everything before the checksum field.
constexpr size_t kHeaderChecksumPrefix = kOffHeaderChecksum;

struct SectionEntry {
  uint32_t id = 0;
  uint32_t reserved = 0;
  uint64_t offset = 0;
  uint64_t size = 0;
  uint64_t checksum = 0;
};

template <typename T>
void PutScalar(unsigned char* buf, size_t at, T value) {
  std::memcpy(buf + at, &value, sizeof(T));
}

template <typename T>
T GetScalar(const unsigned char* buf, size_t at) {
  T value;
  std::memcpy(&value, buf + at, sizeof(T));
  return value;
}

bool CheckedMul(uint64_t a, uint64_t b, uint64_t* out) {
  if (a != 0 && b > std::numeric_limits<uint64_t>::max() / a) return false;
  *out = a * b;
  return true;
}

util::Status Invalid(const std::string& what) {
  return util::Status::InvalidArgument(".psnap: " + what);
}

/// Collects one section's payload, then writes it and computes its
/// checksum in a single pass. Buffering keeps the checksum definition a
/// plain Fnv1a64Words over the whole contiguous payload (the loader
/// verifies exactly that), independent of how many Append calls — of
/// arbitrary, non-word-multiple sizes — produced it.
class SectionStream {
 public:
  SectionStream(std::ostream& out, uint64_t start) : out_(&out), pos_(start) {}

  uint64_t pos() const { return pos_; }

  void BeginSection() { buffer_.clear(); }

  void Append(const void* data, size_t size) {
    const char* bytes = static_cast<const char*>(data);
    buffer_.insert(buffer_.end(), bytes, bytes + size);
  }

  /// Flushes the buffered payload; returns its checksum.
  uint64_t EndSection() {
    out_->write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    pos_ += buffer_.size();
    return util::Fnv1a64Words(buffer_.data(), buffer_.size());
  }

  void PadTo(size_t alignment) {
    static constexpr char kZeros[kPsnapAlignment] = {};
    while (pos_ % alignment != 0) {
      const size_t pad =
          std::min<size_t>(alignment - pos_ % alignment, sizeof(kZeros));
      out_->write(kZeros, static_cast<std::streamsize>(pad));
      pos_ += pad;
    }
  }

 private:
  std::ostream* out_;
  uint64_t pos_;
  std::vector<char> buffer_;
};

/// Everything ParseHeader learns: the summary plus the raw section table.
struct ParsedHeader {
  SnapshotFileInfo info;
  uint32_t flags = 0;
  std::vector<SectionEntry> entries;
};

/// Structural validation layer 1: magic, version, field ranges, section
/// count, table bounds, header checksum. Touches no payload bytes.
util::Status ParseHeader(const unsigned char* base, uint64_t file_bytes,
                         ParsedHeader* out) {
  if (file_bytes < kPsnapHeaderBytes) {
    return Invalid("file shorter than the fixed header");
  }
  if (std::memcmp(base + kOffMagic, kMagic, sizeof(kMagic)) != 0) {
    return Invalid("not a PSNP snapshot file");
  }
  const auto version = GetScalar<uint32_t>(base, kOffVersion);
  if (version != kPsnapVersion) {
    return Invalid("unsupported version " + std::to_string(version) +
                   " (this build reads version " +
                   std::to_string(kPsnapVersion) + ")");
  }
  const auto method_raw = GetScalar<uint32_t>(base, kOffMethod);
  if (method_raw > 1) return Invalid("bad method field");
  const auto decay = GetScalar<float>(base, kOffDecay);
  if (!(decay > 0.0f) || decay > 1.0f) return Invalid("decay out of range");
  const auto flags = GetScalar<uint32_t>(base, kOffFlags);
  if ((flags & ~kKnownFlags) != 0) return Invalid("unknown flags set");
  const auto num_sections = GetScalar<uint32_t>(base, kOffNumSections);
  // Version 1 has exactly the fixed section list; an absurd count would
  // also make the table-bounds multiply below meaningless.
  const uint32_t expected_sections = (flags & kFlagCompact) != 0 ? 9 : 8;
  if (num_sections != expected_sections) {
    return Invalid("wrong section count for version 1");
  }
  const uint64_t table_bytes =
      static_cast<uint64_t>(num_sections) * kPsnapSectionEntryBytes;
  if (file_bytes - kPsnapHeaderBytes < table_bytes) {
    return Invalid("section table exceeds file");
  }
  // Both chained ranges are whole multiples of 8 bytes (56-byte prefix,
  // 32-byte table entries), as Fnv1a64Words chaining requires.
  uint64_t computed = util::Fnv1a64Words(base, kHeaderChecksumPrefix);
  computed =
      util::Fnv1a64Words(base + kPsnapHeaderBytes, table_bytes, computed);
  if (computed != GetScalar<uint64_t>(base, kOffHeaderChecksum)) {
    return Invalid("header checksum mismatch");
  }

  out->flags = flags;
  out->info.version = version;
  out->info.method = static_cast<signature::Method>(method_raw);
  out->info.depth = GetScalar<uint32_t>(base, kOffDepth);
  out->info.decay = decay;
  out->info.has_compact = (flags & kFlagCompact) != 0;
  out->info.num_nodes = GetScalar<uint64_t>(base, kOffNumNodes);
  out->info.num_edges = GetScalar<uint64_t>(base, kOffNumEdges);
  out->info.num_labels = GetScalar<uint64_t>(base, kOffNumLabels);
  out->info.sig_labels = GetScalar<uint32_t>(base, kOffSigLabels);
  out->info.num_sections = num_sections;
  out->info.file_bytes = file_bytes;
  out->entries.resize(num_sections);
  for (uint32_t i = 0; i < num_sections; ++i) {
    const unsigned char* e =
        base + kPsnapHeaderBytes + i * kPsnapSectionEntryBytes;
    out->entries[i].id = GetScalar<uint32_t>(e, 0);
    out->entries[i].reserved = GetScalar<uint32_t>(e, 4);
    out->entries[i].offset = GetScalar<uint64_t>(e, 8);
    out->entries[i].size = GetScalar<uint64_t>(e, 16);
    out->entries[i].checksum = GetScalar<uint64_t>(e, 24);
  }
  return util::Status::Ok();
}

/// Structural validation layer 2: every section has the expected id and
/// exact size, lies inside the file, and is aligned for its element type.
/// Every size is computed with overflow checks before it is used, so a
/// hostile header can neither wrap a bound nor drive an allocation.
util::Status ValidateSections(const ParsedHeader& h, uint64_t file_bytes) {
  const uint64_t n = h.info.num_nodes;
  const uint64_t num_labels = h.info.num_labels;
  const uint64_t sig_labels = h.info.sig_labels;

  // Dimension sanity before any size arithmetic: node and label ids must
  // fit their 32-bit on-disk/in-memory types, and every element count must
  // be size_t-addressable (a 64-bit count can exceed size_t on ILP32).
  if (n > std::numeric_limits<uint32_t>::max()) {
    return Invalid("num_nodes exceeds the 32-bit node id space");
  }
  if (num_labels > std::numeric_limits<uint32_t>::max()) {
    return Invalid("num_labels exceeds the 32-bit label space");
  }
  uint64_t arc_count = 0;      // 2 * num_edges
  uint64_t sig_count = 0;      // num_nodes * sig_labels
  if (!CheckedMul(h.info.num_edges, 2, &arc_count) ||
      !CheckedMul(n, sig_labels, &sig_count)) {
    return Invalid("dimensions overflow");
  }
  uint64_t worst_bytes = 0;
  if (!CheckedMul(sig_count, sizeof(float), &worst_bytes) ||
      !CheckedMul(arc_count, sizeof(uint32_t), &worst_bytes)) {
    return Invalid("dimensions overflow");
  }
  if (sig_count > std::numeric_limits<size_t>::max() / sizeof(float) ||
      arc_count > std::numeric_limits<size_t>::max() / sizeof(uint32_t)) {
    return Invalid("dimensions exceed addressable memory");
  }

  struct Expected {
    SnapshotSection id;
    uint64_t bytes;
  };
  std::vector<Expected> expected = {
      {SnapshotSection::kCsrOffsets, (n + 1) * sizeof(uint64_t)},
      {SnapshotSection::kCsrNeighbors, arc_count * sizeof(uint32_t)},
      {SnapshotSection::kCsrEdgeLabels, arc_count * sizeof(uint32_t)},
      {SnapshotSection::kNodeLabels, n * sizeof(uint32_t)},
      {SnapshotSection::kNodesByLabel, n * sizeof(uint32_t)},
      {SnapshotSection::kLabelOffsets, (num_labels + 1) * sizeof(uint64_t)},
      {SnapshotSection::kSigFloat, sig_count * sizeof(float)},
  };
  if (h.info.has_compact) {
    expected.push_back({SnapshotSection::kSigCompact, sig_count});
  }
  expected.push_back({SnapshotSection::kRowHashes, n * sizeof(uint64_t)});

  for (size_t i = 0; i < expected.size(); ++i) {
    const SectionEntry& e = h.entries[i];
    if (e.id != static_cast<uint32_t>(expected[i].id)) {
      return Invalid("unexpected section id " + std::to_string(e.id) +
                     " at table index " + std::to_string(i));
    }
    if (e.reserved != 0) return Invalid("nonzero reserved field");
    if (e.size != expected[i].bytes) {
      return Invalid("section " + std::to_string(e.id) +
                     " size does not match the header dimensions");
    }
    // Overflow-safe containment: offset first, then size against what
    // remains — never offset + size, which can wrap.
    if (e.offset > file_bytes || e.size > file_bytes - e.offset) {
      return Invalid("section " + std::to_string(e.id) +
                     " extends past end of file");
    }
    if (e.offset % sizeof(uint64_t) != 0) {
      return Invalid("section " + std::to_string(e.id) + " misaligned");
    }
    if (expected[i].id == SnapshotSection::kSigCompact &&
        file_bytes - e.offset - e.size <
            signature::CompactSignatureMatrix::kTailPadBytes) {
      // The AVX2 prescreen may read (not use) up to kTailPadBytes past
      // the last code; the writer's tail pad guarantees them, a truncated
      // file must not.
      return Invalid("compact section lacks its tail pad");
    }
  }
  return util::Status::Ok();
}

}  // namespace

util::Status SaveSnapshotFile(const graph::Graph& g,
                              const signature::SignatureMatrix& sigs,
                              const std::string& path) {
  if (sigs.num_rows() != g.num_nodes()) {
    return util::Status::InvalidArgument(
        "signature matrix rows do not match graph nodes");
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return util::Status::IoError("cannot open " + path);

  const size_t n = g.num_nodes();
  const size_t num_labels = g.num_labels();
  const signature::CompactSignatureMatrix* compact = sigs.compact();
  const uint32_t num_sections = compact != nullptr ? 9 : 8;
  const size_t table_bytes = num_sections * kPsnapSectionEntryBytes;

  // Reserve the header + table region; both are written last, once the
  // section offsets and checksums are known.
  {
    const std::vector<char> zeros(kPsnapHeaderBytes + table_bytes, 0);
    out.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
  }

  SectionStream stream(out, kPsnapHeaderBytes + table_bytes);
  std::vector<SectionEntry> entries;
  entries.reserve(num_sections);
  const auto write_section = [&](SnapshotSection id, auto&& emit) {
    stream.PadTo(kPsnapAlignment);
    SectionEntry e;
    e.id = static_cast<uint32_t>(id);
    e.offset = stream.pos();
    stream.BeginSection();
    emit();
    e.checksum = stream.EndSection();
    e.size = stream.pos() - e.offset;
    entries.push_back(e);
  };

  std::vector<uint64_t> offsets(n + 1, 0);
  for (size_t u = 0; u < n; ++u) offsets[u + 1] = offsets[u] + g.degree(u);
  write_section(SnapshotSection::kCsrOffsets, [&] {
    stream.Append(offsets.data(), offsets.size() * sizeof(uint64_t));
  });
  write_section(SnapshotSection::kCsrNeighbors, [&] {
    for (size_t u = 0; u < n; ++u) {
      const auto nb = g.neighbors(static_cast<graph::NodeId>(u));
      stream.Append(nb.data(), nb.size() * sizeof(graph::NodeId));
    }
  });
  write_section(SnapshotSection::kCsrEdgeLabels, [&] {
    for (size_t u = 0; u < n; ++u) {
      const auto el = g.edge_labels(static_cast<graph::NodeId>(u));
      stream.Append(el.data(), el.size() * sizeof(graph::Label));
    }
  });
  write_section(SnapshotSection::kNodeLabels, [&] {
    for (size_t u = 0; u < n; ++u) {
      const graph::Label l = g.label(static_cast<graph::NodeId>(u));
      stream.Append(&l, sizeof(l));
    }
  });
  write_section(SnapshotSection::kNodesByLabel, [&] {
    for (size_t l = 0; l < num_labels; ++l) {
      const auto nodes = g.nodes_with_label(static_cast<graph::Label>(l));
      stream.Append(nodes.data(), nodes.size() * sizeof(graph::NodeId));
    }
  });
  write_section(SnapshotSection::kLabelOffsets, [&] {
    std::vector<uint64_t> label_offsets(num_labels + 1, 0);
    for (size_t l = 0; l < num_labels; ++l) {
      label_offsets[l + 1] =
          label_offsets[l] + g.label_frequency(static_cast<graph::Label>(l));
    }
    stream.Append(label_offsets.data(),
                  label_offsets.size() * sizeof(uint64_t));
  });
  write_section(SnapshotSection::kSigFloat, [&] {
    for (size_t i = 0; i < sigs.num_rows(); ++i) {
      const auto row = sigs.row(i);
      stream.Append(row.data(), row.size() * sizeof(float));
    }
  });
  if (compact != nullptr) {
    write_section(SnapshotSection::kSigCompact, [&] {
      for (size_t i = 0; i < compact->num_rows(); ++i) {
        const auto row = compact->row(i);
        stream.Append(row.data(), row.size());
      }
    });
  }
  write_section(SnapshotSection::kRowHashes, [&] {
    for (size_t i = 0; i < sigs.num_rows(); ++i) {
      const uint64_t h = sigs.RowHash(i);
      stream.Append(&h, sizeof(h));
    }
  });

  // Tail pad: keeps the AVX2 compact prescreen's masked tail-vector
  // over-read (<= CompactSignatureMatrix::kTailPadBytes) inside the
  // mapping even for the file's last section.
  {
    const char zeros[kPsnapTailPadBytes] = {};
    out.write(zeros, sizeof(zeros));
  }

  // Header + section table, checksummed together.
  std::vector<unsigned char> head(kPsnapHeaderBytes + table_bytes, 0);
  std::memcpy(head.data() + kOffMagic, kMagic, sizeof(kMagic));
  PutScalar<uint32_t>(head.data(), kOffVersion, kPsnapVersion);
  PutScalar<uint32_t>(head.data(), kOffMethod,
                      static_cast<uint32_t>(sigs.method()));
  PutScalar<uint32_t>(head.data(), kOffDepth, sigs.depth());
  PutScalar<float>(head.data(), kOffDecay, sigs.decay());
  PutScalar<uint32_t>(head.data(), kOffFlags,
                      compact != nullptr ? kFlagCompact : 0u);
  PutScalar<uint64_t>(head.data(), kOffNumNodes, n);
  PutScalar<uint64_t>(head.data(), kOffNumEdges, g.num_edges());
  PutScalar<uint64_t>(head.data(), kOffNumLabels, num_labels);
  PutScalar<uint32_t>(head.data(), kOffNumSections, num_sections);
  PutScalar<uint32_t>(head.data(), kOffSigLabels,
                      static_cast<uint32_t>(sigs.num_labels()));
  for (size_t i = 0; i < entries.size(); ++i) {
    unsigned char* e = head.data() + kPsnapHeaderBytes +
                       i * kPsnapSectionEntryBytes;
    PutScalar<uint32_t>(e, 0, entries[i].id);
    PutScalar<uint32_t>(e, 4, entries[i].reserved);
    PutScalar<uint64_t>(e, 8, entries[i].offset);
    PutScalar<uint64_t>(e, 16, entries[i].size);
    PutScalar<uint64_t>(e, 24, entries[i].checksum);
  }
  uint64_t header_checksum =
      util::Fnv1a64Words(head.data(), kHeaderChecksumPrefix);
  header_checksum = util::Fnv1a64Words(head.data() + kPsnapHeaderBytes,
                                       table_bytes, header_checksum);
  PutScalar<uint64_t>(head.data(), kOffHeaderChecksum, header_checksum);
  out.seekp(0);
  out.write(reinterpret_cast<const char*>(head.data()),
            static_cast<std::streamsize>(head.size()));
  out.flush();
  return out ? util::Status::Ok()
             : util::Status::IoError("write failed for " + path);
}

util::Result<LoadedSnapshot> LoadSnapshotFile(const std::string& path) {
  auto mapped = util::MmapFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  auto holder =
      std::make_shared<util::MmapFile>(std::move(mapped).value());
  const unsigned char* base = holder->bytes();
  const uint64_t file_bytes = holder->size();

  ParsedHeader h;
  if (util::Status s = ParseHeader(base, file_bytes, &h); !s.ok()) return s;
  if (util::Status s = ValidateSections(h, file_bytes); !s.ok()) return s;

  // Chaos hook: a load that fails after validation — e.g. the mapping
  // disappearing under us or an allocation failure while adopting the CSR.
  if (PSI_INJECT_FAULT(util::faults::kSnapshotLoad)) {
    return util::Status::IoError("injected snapshot load failure for '" +
                                 path + "'");
  }

  for (const SectionEntry& e : h.entries) {
    if (util::Fnv1a64Words(base + e.offset, e.size) != e.checksum) {
      return Invalid("section " + std::to_string(e.id) +
                     " checksum mismatch");
    }
  }

  const auto section = [&](SnapshotSection id) -> const SectionEntry& {
    return h.entries[static_cast<size_t>(
        static_cast<uint32_t>(id) > static_cast<uint32_t>(
                                        SnapshotSection::kSigCompact) &&
                !h.info.has_compact
            ? static_cast<uint32_t>(id) - 2
            : static_cast<uint32_t>(id) - 1)];
  };
  const auto n = static_cast<size_t>(h.info.num_nodes);
  const auto arcs = static_cast<size_t>(2 * h.info.num_edges);
  const auto num_labels = static_cast<size_t>(h.info.num_labels);
  const auto sig_labels = static_cast<size_t>(h.info.sig_labels);

  const auto* offsets = reinterpret_cast<const uint64_t*>(
      base + section(SnapshotSection::kCsrOffsets).offset);
  const auto* neighbors = reinterpret_cast<const graph::NodeId*>(
      base + section(SnapshotSection::kCsrNeighbors).offset);
  const auto* edge_labels = reinterpret_cast<const graph::Label*>(
      base + section(SnapshotSection::kCsrEdgeLabels).offset);
  const auto* node_labels = reinterpret_cast<const graph::Label*>(
      base + section(SnapshotSection::kNodeLabels).offset);
  const auto* nodes_by_label = reinterpret_cast<const graph::NodeId*>(
      base + section(SnapshotSection::kNodesByLabel).offset);
  const auto* label_offsets = reinterpret_cast<const uint64_t*>(
      base + section(SnapshotSection::kLabelOffsets).offset);

  // The CSR is indexed by its own contents, so checksummed-but-wrong bytes
  // could still read out of bounds: re-validate every Build() invariant.
  auto graph_result = graph::GraphBuilder::FromCsr(
      {offsets, n + 1}, {neighbors, arcs}, {edge_labels, arcs},
      {node_labels, n}, {nodes_by_label, n}, {label_offsets, num_labels + 1});
  if (!graph_result.ok()) return graph_result.status();

  // The signature payloads, by contrast, are pure data — every weight is
  // compared, never used as an index — so they are served zero-copy out of
  // the mapping.
  signature::SignatureMatrix sigs = signature::SignatureMatrix::FromExternal(
      reinterpret_cast<const float*>(
          base + section(SnapshotSection::kSigFloat).offset),
      n, sig_labels, h.info.method, h.info.depth, h.info.decay);
  if (h.info.has_compact) {
    sigs.AttachCompact(std::make_unique<signature::CompactSignatureMatrix>(
        signature::CompactSignatureMatrix::View(
            base + section(SnapshotSection::kSigCompact).offset, n,
            sig_labels)));
  }
  sigs.AdoptRowHashes(
      {reinterpret_cast<const uint64_t*>(
           base + section(SnapshotSection::kRowHashes).offset),
       n});

  LoadedSnapshot loaded{std::move(graph_result).value(), std::move(sigs),
                        std::shared_ptr<const void>(holder, holder->data())};
  return loaded;
}

util::Result<SnapshotFileInfo> DescribeSnapshotFile(const std::string& path) {
  auto mapped = util::MmapFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  const util::MmapFile& file = mapped.value();
  ParsedHeader h;
  if (util::Status s = ParseHeader(file.bytes(), file.size(), &h); !s.ok()) {
    return s;
  }
  return h.info;
}

}  // namespace psi::service
