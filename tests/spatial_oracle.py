"""Brute-force oracle for the spatial index and the neighbour cache.

An O(n) walk over every inserted point, written for obviousness rather than
speed.  The membership predicate is the index's documented one: squared
distance within ``radius**2`` *and* x inside the closed window
``[cx - radius, cx + radius]`` (the window keeps a squared distance that
underflows to 0.0 from admitting a point outside it).
"""

import math


class BruteForceIndex:
    def __init__(self):
        self._points = []  # (item, x, y) in insertion order
        self._dead = set()

    def insert(self, item, position):
        self._points.append((item, float(position[0]), float(position[1])))

    def remove(self, item):
        self._dead.add(item)

    def scan(self, center, radius, exclude=None):
        """``(d_sq, insertion index, item)`` of every live hit, sorted."""
        cx, cy = center
        hits = []
        for order, (item, x, y) in enumerate(self._points):
            if item in self._dead or item == exclude:
                continue
            dx, dy = x - cx, y - cy
            d_sq = dx * dx + dy * dy
            if d_sq <= radius * radius and cx - radius <= x <= cx + radius:
                hits.append((d_sq, order, item))
        return sorted(hits)

    def within(self, center, radius):
        hits = sorted(self.scan(center, radius), key=lambda hit: hit[1])
        return [item for _, _, item in hits]

    def neighbors_with_distance(self, item, radius):
        center = next(point[1:] for point in self._points if point[0] == item)
        hits = self.scan(center, radius, exclude=item)
        return [(other, math.sqrt(d_sq)) for d_sq, _, other in hits]
