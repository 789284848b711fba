#include "io/poi_io.h"

#include <cstdlib>

#include "common/csv.h"
#include "common/strings.h"
#include "geo/vec2.h"

namespace stmaker {

Status WritePoisCsv(const std::string& path,
                    const std::vector<RawPoi>& pois) {
  STMAKER_ASSIGN_OR_RETURN(CsvWriter writer, CsvWriter::Open(path));
  STMAKER_RETURN_IF_ERROR(writer.WriteRow({"x", "y", "name"}));
  for (const RawPoi& poi : pois) {
    STMAKER_RETURN_IF_ERROR(writer.WriteRow({StrFormat("%.3f", poi.pos.x),
                                             StrFormat("%.3f", poi.pos.y),
                                             poi.name}));
  }
  return writer.Close();
}

Result<std::vector<RawPoi>> ReadPoisCsv(const std::string& path) {
  STMAKER_ASSIGN_OR_RETURN(auto rows, ReadCsvTable(path, {"x", "y", "name"}));
  std::vector<RawPoi> out;
  for (size_t r = 0; r < rows.size(); ++r) {
    const auto& row = rows[r];
    char* end = nullptr;
    double x = std::strtod(row[0].c_str(), &end);
    if (end == row[0].c_str() || *end != '\0') {
      return Status::InvalidArgument("bad x: " + row[0]);
    }
    double y = std::strtod(row[1].c_str(), &end);
    if (end == row[1].c_str() || *end != '\0') {
      return Status::InvalidArgument("bad y: " + row[1]);
    }
    if (!IsBoundedCoord({x, y})) {
      return Status::InvalidArgument(StrFormat(
          "%s: row %zu position (%g, %g) is not finite or exceeds %g m",
          path.c_str(), r + 2, x, y, kMaxAbsCoordM));
    }
    out.push_back({{x, y}, row[2]});
  }
  return out;
}

}  // namespace stmaker
