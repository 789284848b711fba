#include "io/road_network_io.h"

#include <cstdlib>

#include "common/csv.h"
#include "common/strings.h"
#include "geo/vec2.h"

namespace stmaker {

namespace {

Result<double> ParseDouble(const std::string& field) {
  char* end = nullptr;
  double v = std::strtod(field.c_str(), &end);
  if (end == field.c_str() || *end != '\0') {
    return Status::InvalidArgument("not a number: '" + field + "'");
  }
  return v;
}

Result<int64_t> ParseInt(const std::string& field) {
  char* end = nullptr;
  long long v = std::strtoll(field.c_str(), &end, 10);
  if (end == field.c_str() || *end != '\0') {
    return Status::InvalidArgument("not an integer: '" + field + "'");
  }
  return static_cast<int64_t>(v);
}

}  // namespace

Status WriteRoadNetworkCsv(const std::string& prefix,
                           const RoadNetwork& network) {
  {
    STMAKER_ASSIGN_OR_RETURN(CsvWriter writer,
                             CsvWriter::Open(prefix + "_nodes.csv"));
    STMAKER_RETURN_IF_ERROR(writer.WriteRow({"node_id", "x", "y"}));
    for (const RoadNode& node : network.nodes()) {
      STMAKER_RETURN_IF_ERROR(writer.WriteRow(
          {std::to_string(node.id), StrFormat("%.3f", node.pos.x),
           StrFormat("%.3f", node.pos.y)}));
    }
    STMAKER_RETURN_IF_ERROR(writer.Close());
  }
  {
    STMAKER_ASSIGN_OR_RETURN(CsvWriter writer,
                             CsvWriter::Open(prefix + "_edges.csv"));
    STMAKER_RETURN_IF_ERROR(writer.WriteRow({"edge_id", "from", "to",
                                             "grade", "width", "direction",
                                             "name", "bias"}));
    for (const RoadEdge& edge : network.edges()) {
      STMAKER_RETURN_IF_ERROR(writer.WriteRow(
          {std::to_string(edge.id), std::to_string(edge.from),
           std::to_string(edge.to),
           std::to_string(static_cast<int>(edge.grade)),
           StrFormat("%.3f", edge.width_m),
           std::to_string(static_cast<int>(edge.direction)), edge.name,
           StrFormat("%.6f", edge.cost_bias)}));
    }
    STMAKER_RETURN_IF_ERROR(writer.Close());
  }
  return Status::OK();
}

Result<RoadNetwork> ReadRoadNetworkCsv(const std::string& prefix) {
  RoadNetwork network;

  const std::string nodes_path = prefix + "_nodes.csv";
  STMAKER_ASSIGN_OR_RETURN(auto node_rows,
                           ReadCsvTable(nodes_path, {"node_id", "x", "y"}));
  for (size_t r = 0; r < node_rows.size(); ++r) {
    const auto& row = node_rows[r];
    STMAKER_ASSIGN_OR_RETURN(int64_t id, ParseInt(row[0]));
    STMAKER_ASSIGN_OR_RETURN(double x, ParseDouble(row[1]));
    STMAKER_ASSIGN_OR_RETURN(double y, ParseDouble(row[2]));
    if (!IsBoundedCoord({x, y})) {
      return Status::InvalidArgument(StrFormat(
          "%s: row %zu position (%g, %g) is not finite or exceeds %g m",
          nodes_path.c_str(), r + 2, x, y, kMaxAbsCoordM));
    }
    NodeId assigned = network.AddNode({x, y});
    if (assigned != id) {
      return Status::InvalidArgument(
          "node ids must be dense and in file order");
    }
  }

  STMAKER_ASSIGN_OR_RETURN(
      auto edge_rows,
      ReadCsvTable(prefix + "_edges.csv",
                   {"edge_id", "from", "to", "grade", "width", "direction",
                    "name", "bias"}));
  for (size_t r = 0; r < edge_rows.size(); ++r) {
    const auto& row = edge_rows[r];
    STMAKER_ASSIGN_OR_RETURN(int64_t id, ParseInt(row[0]));
    STMAKER_ASSIGN_OR_RETURN(int64_t from, ParseInt(row[1]));
    STMAKER_ASSIGN_OR_RETURN(int64_t to, ParseInt(row[2]));
    STMAKER_ASSIGN_OR_RETURN(int64_t grade, ParseInt(row[3]));
    STMAKER_ASSIGN_OR_RETURN(double width, ParseDouble(row[4]));
    STMAKER_ASSIGN_OR_RETURN(int64_t direction, ParseInt(row[5]));
    STMAKER_ASSIGN_OR_RETURN(double bias, ParseDouble(row[7]));
    if (!IsValidRoadGrade(static_cast<int>(grade))) {
      return Status::InvalidArgument(
          StrFormat("invalid road grade %lld", static_cast<long long>(grade)));
    }
    if (direction != 1 && direction != 2) {
      return Status::InvalidArgument("invalid traffic direction");
    }
    STMAKER_ASSIGN_OR_RETURN(
        EdgeId assigned,
        network.AddEdge(from, to, static_cast<RoadGrade>(grade), width,
                        static_cast<TrafficDirection>(direction), row[6]));
    if (assigned != id) {
      return Status::InvalidArgument(
          "edge ids must be dense and in file order");
    }
    network.mutable_edge(assigned).cost_bias = bias;
  }

  network.AnnotateTurningPoints();
  network.BuildSpatialIndex();
  return network;
}

}  // namespace stmaker
