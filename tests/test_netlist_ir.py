"""Unit tests for the core netlist IR."""

import pytest

from repro.netlist.ir import (Definition, Direction, Library, Netlist,
                              NetlistError, Port)


class TestPort:
    def test_port_properties(self):
        port = Port("A", Direction.INPUT, 4)
        assert port.is_input and not port.is_output
        assert list(port.bits()) == [0, 1, 2, 3]

    def test_zero_width_rejected(self):
        with pytest.raises(NetlistError):
            Port("A", Direction.INPUT, 0)


class TestDefinition:
    def test_add_port_and_duplicate(self):
        definition = Definition("mod")
        definition.add_port("A", Direction.INPUT, 2)
        with pytest.raises(NetlistError):
            definition.add_port("A", Direction.OUTPUT)

    def test_top_pin_bounds(self):
        definition = Definition("mod")
        definition.add_port("A", Direction.INPUT, 2)
        definition.top_pin("A", 1)
        with pytest.raises(NetlistError):
            definition.top_pin("A", 2)
        with pytest.raises(NetlistError):
            definition.top_pin("B", 0)

    def test_add_net_names(self):
        definition = Definition("mod")
        net = definition.add_net("n1")
        assert net.name == "n1"
        anonymous = definition.add_net()
        assert anonymous.name in definition.nets
        with pytest.raises(NetlistError):
            definition.add_net("n1")

    def test_remove_net_detaches_pins(self):
        definition = Definition("mod")
        definition.add_port("A", Direction.INPUT)
        net = definition.add_net("n")
        pin = definition.top_pin("A", 0)
        net.connect(pin)
        definition.remove_net(net)
        assert pin.net is None
        assert "n" not in definition.nets

    def test_make_unique_name(self):
        definition = Definition("mod")
        first = definition.make_unique_name("x")
        definition.add_net(first)
        second = definition.make_unique_name("x")
        assert first != second


class TestInstanceAndNets:
    @pytest.fixture()
    def lut2(self):
        library = Library("cells")
        lut = library.add_definition("LUT2", is_primitive=True)
        lut.add_port("I0", Direction.INPUT)
        lut.add_port("I1", Direction.INPUT)
        lut.add_port("O", Direction.OUTPUT)
        return lut

    def test_instance_connect_and_net_of(self, lut2):
        top = Definition("top")
        inst = top.add_instance(lut2, "u1")
        net = top.add_net("n")
        inst.connect("O", net)
        assert inst.net_of("O") is net
        assert inst.net_of("I0") is None

    def test_driver_and_sink_classification(self, lut2):
        top = Definition("top")
        driver = top.add_instance(lut2, "drv")
        sink = top.add_instance(lut2, "snk")
        net = top.add_net("n")
        driver.connect("O", net)
        sink.connect("I0", net)
        assert [p.instance.name for p in net.drivers()] == ["drv"]
        assert [p.instance.name for p in net.sinks()] == ["snk"]

    def test_top_pin_driver_semantics(self, lut2):
        top = Definition("top")
        top.add_port("IN", Direction.INPUT)
        top.add_port("OUT", Direction.OUTPUT)
        net_in = top.add_net("ni")
        net_out = top.add_net("no")
        net_in.connect(top.top_pin("IN", 0))
        net_out.connect(top.top_pin("OUT", 0))
        assert net_in.drivers() and not net_in.sinks()
        assert net_out.sinks() and not net_out.drivers()

    def test_reconnect_moves_pin(self, lut2):
        top = Definition("top")
        inst = top.add_instance(lut2, "u1")
        net_a = top.add_net("a")
        net_b = top.add_net("b")
        inst.connect("I0", net_a)
        inst.connect("I0", net_b)
        assert inst.net_of("I0") is net_b
        assert not net_a.pins

    def test_pin_out_of_range(self, lut2):
        top = Definition("top")
        inst = top.add_instance(lut2, "u1")
        with pytest.raises(NetlistError):
            inst.pin("I0", 1)
        with pytest.raises(NetlistError):
            inst.pin("nonexistent")

    def test_remove_instance_disconnects(self, lut2):
        top = Definition("top")
        inst = top.add_instance(lut2, "u1")
        net = top.add_net("n")
        inst.connect("O", net)
        top.remove_instance(inst)
        assert not net.pins
        assert "u1" not in top.instances

    def test_count_primitives_recursive(self, lut2):
        inner = Definition("inner")
        inner.add_instance(lut2, "a")
        inner.add_instance(lut2, "b")
        top = Definition("top")
        top.add_instance(inner, "i1")
        top.add_instance(inner, "i2")
        assert top.count_primitives() == {"LUT2": 4}


class TestLibraryAndNetlist:
    def test_library_add_and_contains(self):
        library = Library("work")
        library.add_definition("m")
        assert "m" in library
        with pytest.raises(NetlistError):
            library.add_definition("m")

    def test_netlist_find_definition(self):
        netlist = Netlist("n")
        work = netlist.add_library("work")
        definition = work.add_definition("m")
        assert netlist.find_definition("m") is definition
        assert netlist.find_definition("missing") is None

    def test_get_library_creates(self):
        netlist = Netlist("n")
        library = netlist.get_library("auto")
        assert netlist.get_library("auto") is library

    def test_set_top(self):
        netlist = Netlist("n")
        definition = netlist.get_library("work").add_definition("m")
        netlist.set_top(definition)
        assert netlist.top is definition
