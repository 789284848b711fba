#include "io/container.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/fileutil.h"
#include "common/metrics.h"
#include "common/strings.h"

namespace stmaker {

static_assert(std::endian::native == std::endian::little,
              "the container format is little-endian only; a big-endian "
              "port needs byte-swapping readers");

namespace {

std::string_view AsView(const void* p, size_t n) {
  return std::string_view(static_cast<const char*>(p), n);
}

/// CRC over the header (with header_crc32 zeroed) continued over the raw
/// section table — the coverage rule of FORMAT.md §4.
uint32_t HeaderCrc(ContainerHeader header,
                   std::span<const SectionEntry> table) {
  header.header_crc32 = 0;
  uint32_t crc = Crc32(AsView(&header, sizeof(header)));
  if (!table.empty()) {
    crc = Crc32(AsView(table.data(), table.size() * sizeof(SectionEntry)),
                crc);
  }
  return crc;
}

}  // namespace

void ContainerWriter::AddSection(SectionType type, uint32_t version,
                                 uint32_t record_width,
                                 std::string payload) {
  PendingSection s;
  s.type = type;
  s.version = version;
  s.record_width = record_width;
  s.payload = std::move(payload);
  sections_.push_back(std::move(s));
}

std::string ContainerWriter::FinishToString() {
  ContainerHeader header{};
  std::memcpy(header.magic, kContainerMagic, sizeof(header.magic));
  header.format_version = kContainerFormatVersion;
  header.flags = 0;
  header.section_count = static_cast<uint32_t>(sections_.size());

  std::vector<SectionEntry> table(sections_.size());
  std::string body;  // payloads, offsets relative to file start
  uint64_t cursor = sizeof(ContainerHeader) +
                    sections_.size() * sizeof(SectionEntry);
  // The payload area itself starts aligned.
  const uint64_t body_start =
      (cursor + kContainerAlignment - 1) / kContainerAlignment *
      kContainerAlignment;
  body.append(static_cast<size_t>(body_start - cursor), '\0');
  cursor = body_start;

  for (size_t i = 0; i < sections_.size(); ++i) {
    const PendingSection& s = sections_[i];
    SectionEntry& e = table[i];
    std::memset(&e, 0, sizeof(e));
    e.type = static_cast<uint32_t>(s.type);
    e.version = s.version;
    e.record_width = s.record_width;
    e.offset = cursor;
    e.bytes = s.payload.size();
    e.record_count =
        s.record_width == 0 ? 0 : s.payload.size() / s.record_width;
    e.crc32 = Crc32(s.payload);
    body += s.payload;
    cursor += s.payload.size();
    const uint64_t aligned =
        (cursor + kContainerAlignment - 1) / kContainerAlignment *
        kContainerAlignment;
    body.append(static_cast<size_t>(aligned - cursor), '\0');
    cursor = aligned;
  }

  header.file_bytes = sizeof(ContainerHeader) +
                      table.size() * sizeof(SectionEntry) + body.size();
  header.header_crc32 = HeaderCrc(header, table);

  std::string out;
  out.reserve(static_cast<size_t>(header.file_bytes));
  out.append(AsView(&header, sizeof(header)));
  if (!table.empty()) {
    out.append(AsView(table.data(), table.size() * sizeof(SectionEntry)));
  }
  out += body;
  sections_.clear();
  return out;
}

Status ContainerWriter::Finish(const std::string& path) {
  return WriteFileAtomic(path, FinishToString());
}

MappedContainer::~MappedContainer() {
  if (map_base_ != nullptr) ::munmap(map_base_, map_len_);
}

Result<std::shared_ptr<MappedContainer>> MappedContainer::Open(
    const std::string& path) {
  static Counter& map_fallbacks =
      MetricsRegistry::Global().counter("container.map_fallbacks");

  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError(path + ": open failed: " +
                           std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::IoError(path + ": not a regular file");
  }
  const size_t size = static_cast<size_t>(st.st_size);

  std::shared_ptr<MappedContainer> c(new MappedContainer());
  c->path_ = path;
  c->size_ = size;

  bool map_denied = false;
  STMAKER_FAILPOINT("container/map", map_denied = true);
  if (!map_denied && size > 0) {
    void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (base != MAP_FAILED) {
      c->map_base_ = base;
      c->map_len_ = size;
      c->data_ = static_cast<const uint8_t*>(base);
    } else {
      map_denied = true;
    }
  }
  if (c->data_ == nullptr && size > 0) {
    // mmap unavailable (failpoint or a genuine ENOMEM/ENODEV): fall back
    // to an aligned heap buffer so the caller sees identical behavior,
    // just without the page-cache sharing. Counted for observability.
    std::fprintf(stderr,
                 "stmaker: warning: mmap of %s unavailable, loading the "
                 "container into a heap buffer\n",
                 path.c_str());
    map_fallbacks.Increment();
    auto buf = std::make_unique<uint8_t[]>(size);
    size_t done = 0;
    while (done < size) {
      ssize_t n = ::read(fd, buf.get() + done, size - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        ::close(fd);
        return Status::IoError(path + ": short read at " +
                               std::to_string(done));
      }
      done += static_cast<size_t>(n);
    }
    c->heap_ = std::move(buf);
    c->heap_backed_ = true;
    c->data_ = c->heap_.get();
  }
  ::close(fd);

  // Structural validation: everything below is O(header + section table).
  if (size < sizeof(ContainerHeader)) {
    return Status::InvalidArgument(path + ": too small to be a container (" +
                                   std::to_string(size) + " bytes)");
  }
  std::memcpy(&c->header_, c->data_, sizeof(ContainerHeader));
  const ContainerHeader& h = c->header_;
  if (std::memcmp(h.magic, kContainerMagic, sizeof(kContainerMagic)) != 0) {
    return Status::InvalidArgument(path + ": bad magic, not a model "
                                          "container");
  }
  if (h.format_version == 0 ||
      h.format_version > kContainerFormatVersion) {
    return Status::FailedPrecondition(StrFormat(
        "%s: container format version %u is newer than this reader "
        "(max %u); upgrade the server or re-pack the model",
        path.c_str(), h.format_version, kContainerFormatVersion));
  }
  if (h.file_bytes != size) {
    return Status::InvalidArgument(StrFormat(
        "%s: header declares %llu bytes but the file has %zu (truncated "
        "or grown)",
        path.c_str(), static_cast<unsigned long long>(h.file_bytes), size));
  }
  const uint64_t table_bytes =
      static_cast<uint64_t>(h.section_count) * sizeof(SectionEntry);
  if (h.section_count > 4096 ||
      sizeof(ContainerHeader) + table_bytes > size) {
    return Status::InvalidArgument(
        path + ": section table does not fit the file");
  }
  c->sections_.resize(h.section_count);
  if (h.section_count > 0) {
    std::memcpy(c->sections_.data(), c->data_ + sizeof(ContainerHeader),
                static_cast<size_t>(table_bytes));
  }
  if (HeaderCrc(h, c->sections_) != h.header_crc32) {
    return Status::InvalidArgument(
        path + ": header/section-table CRC mismatch (corrupt file)");
  }
  const uint64_t payload_floor = sizeof(ContainerHeader) + table_bytes;
  for (const SectionEntry& e : c->sections_) {
    if (e.offset % kContainerAlignment != 0) {
      return Status::InvalidArgument(StrFormat(
          "%s: section type %u at offset %llu is not %llu-byte aligned",
          path.c_str(), e.type, static_cast<unsigned long long>(e.offset),
          static_cast<unsigned long long>(kContainerAlignment)));
    }
    if (e.offset < payload_floor || e.bytes > size ||
        e.offset > size - e.bytes) {
      return Status::InvalidArgument(StrFormat(
          "%s: section type %u [%llu, +%llu) is out of the file's bounds",
          path.c_str(), e.type, static_cast<unsigned long long>(e.offset),
          static_cast<unsigned long long>(e.bytes)));
    }
    if (e.record_width == 0 ||
        e.record_count != e.bytes / e.record_width ||
        e.record_count * static_cast<uint64_t>(e.record_width) != e.bytes) {
      return Status::InvalidArgument(StrFormat(
          "%s: section type %u record geometry is inconsistent "
          "(width %u, count %llu, bytes %llu)",
          path.c_str(), e.type, e.record_width,
          static_cast<unsigned long long>(e.record_count),
          static_cast<unsigned long long>(e.bytes)));
    }
  }
  return c;
}

const SectionEntry* MappedContainer::Find(SectionType type) const {
  for (const SectionEntry& e : sections_) {
    if (e.type == static_cast<uint32_t>(type)) return &e;
  }
  return nullptr;
}

bool MappedContainer::VerifyCrc(const SectionEntry& entry) const {
  return Crc32(Blob(entry)) == entry.crc32;
}

std::string_view MappedContainer::Blob(const SectionEntry& entry) const {
  return AsView(data_ + entry.offset, static_cast<size_t>(entry.bytes));
}

}  // namespace stmaker
