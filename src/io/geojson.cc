#include "io/geojson.h"

#include <set>

#include "io/json.h"

namespace stmaker {

namespace {

void EmitPosition(JsonWriter* json, const LocalProjection& projection,
                  const Vec2& pos) {
  LatLon ll = projection.ToLatLon(pos);
  json->BeginArray().Number(ll.lon).Number(ll.lat).EndArray();
}

}  // namespace

std::string SummaryToGeoJson(const Summary& summary,
                             const LandmarkIndex& landmarks,
                             const LocalProjection& projection) {
  JsonWriter json;
  json.BeginObject();
  json.Key("type").String("FeatureCollection");
  json.Key("features").BeginArray();

  // One LineString per partition through its landmark chain.
  for (size_t p = 0; p < summary.partitions.size(); ++p) {
    const PartitionSummary& part = summary.partitions[p];
    json.BeginObject();
    json.Key("type").String("Feature");
    json.Key("properties").BeginObject();
    json.Key("kind").String("partition");
    json.Key("index").Int(static_cast<long long>(p));
    json.Key("sentence").String(part.sentence);
    json.Key("selected_features").BeginArray();
    for (const SelectedFeature& sel : part.selected) {
      json.Int(static_cast<long long>(sel.feature));
    }
    json.EndArray();
    json.EndObject();
    json.Key("geometry").BeginObject();
    json.Key("type").String("LineString");
    json.Key("coordinates").BeginArray();
    for (size_t s = part.seg_begin; s <= part.seg_end; ++s) {
      EmitPosition(&json, projection,
                   landmarks.landmark(summary.symbolic.samples[s].landmark)
                       .pos);
    }
    json.EndArray();
    json.EndObject();
    json.EndObject();
  }

  // One Point per partition-boundary landmark.
  std::set<LandmarkId> boundary;
  for (const PartitionSummary& part : summary.partitions) {
    boundary.insert(part.source);
    boundary.insert(part.destination);
  }
  for (LandmarkId id : boundary) {
    const Landmark& lm = landmarks.landmark(id);
    json.BeginObject();
    json.Key("type").String("Feature");
    json.Key("properties").BeginObject();
    json.Key("kind").String("landmark");
    json.Key("name").String(lm.name);
    json.Key("significance").Number(lm.significance);
    json.EndObject();
    json.Key("geometry").BeginObject();
    json.Key("type").String("Point");
    json.Key("coordinates");
    EmitPosition(&json, projection, lm.pos);
    json.EndObject();
    json.EndObject();
  }

  json.EndArray();
  json.EndObject();
  return json.str();
}

}  // namespace stmaker
