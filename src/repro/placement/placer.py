"""Placement: quadratic (force-directed) global placement + grid legalization.

The paper's inputs are *placed* designs (DREAMPlace/RePlAce-class academic
placers inside OpenROAD).  This module provides the equivalent substrate:

1. ports are pinned around the die boundary;
2. cells iterate to the weighted barycenter of their net neighbours
   (Jacobi relaxation of the star-model quadratic program);
3. a grid legalizer spreads cells to unique sites, preserving the
   relative order found by the quadratic solve.

The result is a placement where connected cells are physically close, so
routed wirelength — and therefore timing — is a learnable function of pin
coordinates, which is exactly the structure the paper's models exploit.
"""

from __future__ import annotations

import zlib

import numpy as np

from .die import Die

__all__ = ["Placement", "place_design"]


class Placement:
    """Pin and cell coordinates for a design on a die."""

    def __init__(self, design, die, cell_xy, port_xy):
        self.design = design
        self.die = die
        self.cell_xy = cell_xy          # (num_cells, 2)
        self.port_xy = port_xy          # (num_ports, 2)
        self.pin_xy = self._pin_coordinates()

    def _pin_offset(self, pin):
        """Deterministic small offset of a pin within its cell footprint.

        Uses crc32, not ``hash()``: string hashing is randomized per
        process (PYTHONHASHSEED), and pin offsets must be bit-identical
        across processes for parallel dataset builds and artifact-cache
        fingerprints to agree with serial ones.
        """
        tag = f"{pin.cell.cell_type.name}/{pin.lib_pin}".encode()
        h = zlib.crc32(tag) & 0xFFFF
        dx = (h % 16) / 16.0 * 2.0 - 1.0
        dy = ((h // 16) % 16) / 16.0 * 2.0 - 1.0
        return np.asarray([dx, dy])

    def move_cell(self, cell, xy):
        """Move ``cell`` to ``xy``, carrying its timed pins along.

        Clock pins and unconnected pins keep their coordinates (timing
        never reads them).  Returns the nets of the moved pins.
        """
        xy = np.asarray(xy, dtype=np.float64)
        self.cell_xy[self.design.cells.index(cell)] = xy
        nets = set()
        for pin in cell.pins.values():
            if pin.is_clock or pin.net is None:
                continue
            self.pin_xy[pin.index] = self.die.clamp(
                xy + self._pin_offset(pin))
            nets.add(pin.net)
        return nets

    def _pin_coordinates(self):
        design = self.design
        cell_index = {id(c): i for i, c in enumerate(design.cells)}
        port_index = {p.index: i for i, p in enumerate(design.ports)}
        xy = np.zeros((design.num_pins, 2))
        for pin in design.pins:
            if pin.is_port:
                xy[pin.index] = self.port_xy[port_index[pin.index]]
            else:
                base = self.cell_xy[cell_index[id(pin.cell)]]
                xy[pin.index] = base + self._pin_offset(pin)
        return self.die.clamp(xy)


def _boundary_positions(n, die):
    """Evenly distribute ``n`` points around the die perimeter."""
    perimeter = 2.0 * (die.width + die.height)
    out = np.zeros((n, 2))
    for i in range(n):
        d = (i + 0.5) / n * perimeter
        if d < die.width:
            out[i] = (d, 0.0)
        elif d < die.width + die.height:
            out[i] = (die.width, d - die.width)
        elif d < 2 * die.width + die.height:
            out[i] = (2 * die.width + die.height - d, die.height)
        else:
            out[i] = (0.0, perimeter - d)
    return out


def _star_neighbours(design, cell_index, port_index, net_weights=None):
    """For each movable cell: connected (cell ids, port ids, weights).

    ``net_weights`` (net name -> weight, default 1.0) implements
    timing-driven placement: critical nets pull their cells together
    more strongly in the quadratic solve.
    """
    cell_cells = [[] for _ in design.cells]
    cell_ports = [[] for _ in design.cells]
    cell_wc = [[] for _ in design.cells]
    cell_wp = [[] for _ in design.cells]
    for net in design.nets:
        weight = 1.0 if net_weights is None else \
            float(net_weights.get(net.name, 1.0))
        members_c, members_p = set(), set()
        for pin in net.pins:
            if pin.is_port:
                members_p.add(port_index[pin.index])
            elif not pin.is_clock:
                members_c.add(cell_index[id(pin.cell)])
        for c in members_c:
            others = members_c - {c}
            cell_cells[c].extend(others)
            cell_wc[c].extend([weight] * len(others))
            cell_ports[c].extend(members_p)
            cell_wp[c].extend([weight] * len(members_p))
    return cell_cells, cell_ports, cell_wc, cell_wp


def _legalize(xy, die, pitch):
    """Spread cells onto unique grid sites, preserving relative order."""
    n = len(xy)
    if n == 0:
        return xy
    n_cols = max(1, int(die.width // pitch))
    n_rows = max(1, int(die.height // pitch))
    while n_cols * n_rows < n:
        pitch *= 0.8
        n_cols = max(1, int(die.width // pitch))
        n_rows = max(1, int(die.height // pitch))
    per_col = int(np.ceil(n / n_cols))
    per_col = min(per_col, n_rows)
    while per_col * n_cols < n:
        per_col += 1
    order_x = np.argsort(xy[:, 0], kind="stable")
    out = np.zeros_like(xy)
    for col in range(n_cols):
        members = order_x[col * per_col:(col + 1) * per_col]
        if len(members) == 0:
            break
        members = members[np.argsort(xy[members, 1], kind="stable")]
        x = (col + 0.5) * die.width / n_cols
        ys = (np.arange(len(members)) + 0.5) * die.height / max(len(members), 1)
        out[members, 0] = x
        out[members, 1] = ys
    return out


def place_design(design, seed=0, iterations=32, pitch=6.0, utilization=0.7,
                 net_weights=None):
    """Place ``design``; returns a :class:`Placement`.

    Deterministic given ``seed``.  ``iterations`` controls the quadratic
    relaxation; 32 is ample for the benchmark sizes used here.
    ``net_weights`` (net name -> weight) enables timing-driven
    placement: heavier nets contract more (see repro.opt).
    """
    rng = np.random.default_rng(seed)
    n_cells = len(design.cells)
    die = Die.for_cell_count(max(n_cells, 16), pitch=pitch,
                             utilization=utilization)
    cell_index = {id(c): i for i, c in enumerate(design.cells)}
    port_index = {p.index: i for i, p in enumerate(design.ports)}
    port_xy = _boundary_positions(len(design.ports), die)
    cell_xy = rng.uniform([0, 0], [die.width, die.height], size=(n_cells, 2))

    cell_cells, cell_ports, cell_wc, cell_wp = _star_neighbours(
        design, cell_index, port_index, net_weights=net_weights)
    weights_c = [np.asarray(w) for w in cell_wc]
    weights_p = [np.asarray(w) for w in cell_wp]
    for _ in range(iterations):
        new_xy = cell_xy.copy()
        for c in range(n_cells):
            neigh_c = cell_cells[c]
            neigh_p = cell_ports[c]
            total = (weights_c[c].sum() if len(neigh_c) else 0.0) + \
                    (weights_p[c].sum() if len(neigh_p) else 0.0)
            if total <= 0:
                continue
            acc = np.zeros(2)
            if neigh_c:
                acc += (cell_xy[neigh_c] * weights_c[c][:, None]).sum(axis=0)
            if neigh_p:
                acc += (port_xy[neigh_p] * weights_p[c][:, None]).sum(axis=0)
            new_xy[c] = acc / total
        cell_xy = new_xy
    # Tiny jitter breaks exact coincidence before legalization.
    cell_xy += rng.normal(scale=0.25, size=cell_xy.shape)
    cell_xy = _legalize(die.clamp(cell_xy), die, pitch)
    return Placement(design, die, cell_xy, port_xy)
