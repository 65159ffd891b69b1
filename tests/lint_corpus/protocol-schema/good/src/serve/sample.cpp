// Fixture: every field the handler touches appears in the registry.
namespace fx {

void handle(const Message& msg, Message& out) {
  const double period = msg.get_number("period");
  out.set("oops", period);
  check_fields(msg, {{"period", Kind::kNumber}, {"wait", Kind::kBool}});
}

}  // namespace fx
