#include "src/workload/restaurant.h"

namespace txml {

std::vector<Figure1Version> Figure1History() {
  return {
      {Timestamp::FromDate(2001, 1, 1),
       "<guide>"
       "<restaurant><name>Napoli</name><price>15</price></restaurant>"
       "</guide>"},
      {Timestamp::FromDate(2001, 1, 15),
       "<guide>"
       "<restaurant><name>Napoli</name><price>15</price></restaurant>"
       "<restaurant><name>Akropolis</name><price>13</price></restaurant>"
       "</guide>"},
      {Timestamp::FromDate(2001, 1, 31),
       "<guide>"
       "<restaurant><name>Napoli</name><price>18</price></restaurant>"
       "</guide>"},
  };
}

namespace {

const char* const kNameParts[] = {"Napoli",  "Akropolis", "Vesuvio",
                                  "Bergen",  "Paris",     "Roma",
                                  "Dragon",  "Sirocco",   "Fjord",
                                  "Olympia", "Trident",   "Aurora"};
const char* const kCities[] = {"Trondheim", "Paris", "Roma", "Athens"};

}  // namespace

RestaurantWorkload::RestaurantWorkload(Options options)
    : options_(options), rng_(options.seed) {
  entries_.reserve(options_.restaurants);
  for (size_t i = 0; i < options_.restaurants; ++i) {
    entries_.push_back(Entry{FreshName(),
                             static_cast<int>(5 + rng_.Uniform(95)),
                             kCities[rng_.Uniform(4)]});
  }
}

std::string RestaurantWorkload::FreshName() {
  std::string name = kNameParts[next_name_ % 12];
  uint64_t serial = next_name_++ / 12;
  if (serial > 0) {
    name += " ";
    name += std::to_string(serial);
  }
  return name;
}

std::unique_ptr<XmlNode> RestaurantWorkload::CurrentVersion() const {
  auto guide = XmlNode::Element("guide");
  for (const Entry& entry : entries_) {
    XmlNode* restaurant = guide->AddChild(XmlNode::Element("restaurant"));
    restaurant->AddChild(XmlNode::Element("name"))
        ->AddChild(XmlNode::Text(entry.name));
    restaurant->AddChild(XmlNode::Element("price"))
        ->AddChild(XmlNode::Text(std::to_string(entry.price)));
    restaurant->AddChild(XmlNode::Element("city"))
        ->AddChild(XmlNode::Text(entry.city));
  }
  return guide;
}

void RestaurantWorkload::Step() {
  for (Entry& entry : entries_) {
    if (rng_.NextDouble() < options_.price_change_prob) {
      int delta = static_cast<int>(rng_.Uniform(7)) - 3;
      entry.price = std::max(1, entry.price + (delta == 0 ? 1 : delta));
    }
  }
  // Churn: closings and openings.
  if (!entries_.empty() && rng_.NextDouble() < options_.churn) {
    entries_.erase(entries_.begin() +
                   static_cast<ptrdiff_t>(rng_.Uniform(entries_.size())));
  }
  if (rng_.NextDouble() < options_.churn) {
    entries_.push_back(Entry{FreshName(),
                             static_cast<int>(5 + rng_.Uniform(95)),
                             kCities[rng_.Uniform(4)]});
  }
}

}  // namespace txml
