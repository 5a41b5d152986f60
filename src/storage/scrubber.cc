#include "storage/scrubber.h"

#include <cstdio>

namespace prorp::storage {
namespace {

void AddIssue(ScrubReport* report, PageId id, std::string detail) {
  if (report->issues.size() < kMaxScrubIssues) {
    report->issues.push_back(ScrubIssue{id, std::move(detail)});
  }
}

}  // namespace

std::string ScrubReport::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "scrub: pages=%llu unwritten=%llu crc_errors=%llu "
                "id_errors=%llu structural_errors=%llu max_lsn=%llu",
                static_cast<unsigned long long>(pages_scanned),
                static_cast<unsigned long long>(pages_unwritten),
                static_cast<unsigned long long>(checksum_errors),
                static_cast<unsigned long long>(page_id_errors),
                static_cast<unsigned long long>(structural_errors),
                static_cast<unsigned long long>(max_lsn));
  std::string out(buf);
  for (const ScrubIssue& issue : issues) {
    out += "\n  page ";
    out += std::to_string(issue.page_id);
    out += ": ";
    out += issue.detail;
  }
  return out;
}

Result<ScrubReport> ScrubPages(DiskManager* disk) {
  ScrubReport report;
  std::vector<uint8_t> buf(kPageSize);
  uint32_t n = disk->num_pages();
  for (PageId id = 0; id < n; ++id) {
    PRORP_RETURN_IF_ERROR(disk->Read(id, buf.data()));
    ++report.pages_scanned;
    if (IsAllZeroPage(buf.data())) {
      ++report.pages_unwritten;
      continue;
    }
    PageHeader h = ReadPageHeader(buf.data());
    uint32_t actual = ComputePageCrc(buf.data());
    if (h.crc != actual) {
      ++report.checksum_errors;
      char detail[96];
      std::snprintf(detail, sizeof(detail),
                    "checksum mismatch: header %08x, bytes hash to %08x",
                    h.crc, actual);
      AddIssue(&report, id, detail);
      continue;
    }
    if (h.page_id != id) {
      ++report.page_id_errors;
      char detail[96];
      std::snprintf(detail, sizeof(detail),
                    "page-id self-reference mismatch: header says %u",
                    h.page_id);
      AddIssue(&report, id, detail);
      continue;
    }
    if (h.lsn > report.max_lsn) report.max_lsn = h.lsn;
  }
  return report;
}

Result<ScrubReport> ScrubTree(BufferPool* pool, const BPlusTree* tree) {
  // Dirty frames would make the file disagree with the cached truth and
  // show up as false positives; write them out first.
  PRORP_RETURN_IF_ERROR(pool->FlushAll());

  PRORP_ASSIGN_OR_RETURN(ScrubReport report, ScrubPages(pool->disk()));

  // Structural pass.  CheckInvariants fetches through the pool, so every
  // page it touches is checksum-verified on the way in as well.
  Status s = tree->CheckInvariants();
  if (!s.ok()) {
    ++report.structural_errors;
    PageId id = kInvalidPageId;
    if (const CorruptionContext* ctx = s.corruption_context()) {
      id = ctx->page_id;
    }
    AddIssue(&report, id, s.ToString());
  }
  return report;
}

}  // namespace prorp::storage
