// Package viz renders deployments, local disk sets, skylines, and
// forwarding sets as standalone SVG documents using only the standard
// library. It exists for the examples and the CLI's -svg flag: seeing the
// skyline arcs hug the union boundary is the fastest way to understand the
// algorithm.
package viz

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/skyline"
)

// Canvas accumulates SVG elements in world coordinates and renders them
// with a uniform scale. Y is flipped so the output matches mathematical
// orientation.
type Canvas struct {
	minX, minY, maxX, maxY float64
	scale                  float64
	elems                  []string
	hasBounds              bool
}

// NewCanvas returns a canvas that will render at the given pixels-per-unit
// scale.
func NewCanvas(scale float64) *Canvas {
	if scale <= 0 {
		scale = 40
	}
	return &Canvas{scale: scale}
}

func (c *Canvas) grow(x, y, pad float64) {
	if !c.hasBounds {
		c.minX, c.maxX = x-pad, x+pad
		c.minY, c.maxY = y-pad, y+pad
		c.hasBounds = true
		return
	}
	c.minX = math.Min(c.minX, x-pad)
	c.maxX = math.Max(c.maxX, x+pad)
	c.minY = math.Min(c.minY, y-pad)
	c.maxY = math.Max(c.maxY, y+pad)
}

// Circle draws a circle outline.
func (c *Canvas) Circle(center geom.Point, r float64, stroke string, width float64) {
	c.grow(center.X, center.Y, r+0.1)
	c.elems = append(c.elems, fmt.Sprintf(
		`<circle cx="%.4f" cy="%.4f" r="%.4f" fill="none" stroke="%s" stroke-width="%.3f"/>`,
		center.X, -center.Y, r, stroke, width))
}

// Dot draws a filled point marker.
func (c *Canvas) Dot(p geom.Point, r float64, fill string) {
	c.grow(p.X, p.Y, r+0.1)
	c.elems = append(c.elems, fmt.Sprintf(
		`<circle cx="%.4f" cy="%.4f" r="%.4f" fill="%s"/>`, p.X, -p.Y, r, fill))
}

// Line draws a segment.
func (c *Canvas) Line(p, q geom.Point, stroke string, width float64) {
	c.grow(p.X, p.Y, 0.1)
	c.grow(q.X, q.Y, 0.1)
	c.elems = append(c.elems, fmt.Sprintf(
		`<line x1="%.4f" y1="%.4f" x2="%.4f" y2="%.4f" stroke="%s" stroke-width="%.3f"/>`,
		p.X, -p.Y, q.X, -q.Y, stroke, width))
}

// Arc draws the circular arc of disk d between the hub-frame angles
// [a1, a2] (the skyline parameterization: angles measured at the hub, not
// at the disk's center). hub is the hub position in world coordinates.
func (c *Canvas) Arc(hub geom.Point, d geom.Disk, a1, a2 float64, stroke string, width float64) {
	rel := d.Translate(hub)
	p1 := geom.Unit(a1).Scale(rel.RayDist(a1)).Add(hub)
	p2 := geom.Unit(a2).Scale(rel.RayDist(a2)).Add(hub)
	c.grow(d.C.X, d.C.Y, d.R+0.1)
	// The arc spans the angle (measured at the DISK center) from p1 to p2;
	// compute the large-arc flag from that central angle.
	ca1 := p1.Sub(d.C).Angle()
	ca2 := p2.Sub(d.C).Angle()
	delta := geom.CCWDelta(ca1, ca2)
	large := 0
	if delta > math.Pi {
		large = 1
	}
	// SVG y-axis points down, so counterclockwise in world coordinates is
	// sweep=0 in SVG coordinates.
	c.elems = append(c.elems, fmt.Sprintf(
		`<path d="M %.4f %.4f A %.4f %.4f 0 %d 0 %.4f %.4f" fill="none" stroke="%s" stroke-width="%.3f"/>`,
		p1.X, -p1.Y, d.R, d.R, large, p2.X, -p2.Y, stroke, width))
}

// String renders the SVG document.
func (c *Canvas) String() string {
	if !c.hasBounds {
		c.minX, c.minY, c.maxX, c.maxY = 0, 0, 1, 1
	}
	w := (c.maxX - c.minX) * c.scale
	h := (c.maxY - c.minY) * c.scale
	var b strings.Builder
	fmt.Fprintf(&b,
		`<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="%.4f %.4f %.4f %.4f">`,
		w, h, c.minX, -c.maxY, c.maxX-c.minX, c.maxY-c.minY)
	b.WriteString("\n")
	fmt.Fprintf(&b, `<rect x="%.4f" y="%.4f" width="%.4f" height="%.4f" fill="white"/>`,
		c.minX, -c.maxY, c.maxX-c.minX, c.maxY-c.minY)
	b.WriteString("\n")
	for _, e := range c.elems {
		b.WriteString(e)
		b.WriteString("\n")
	}
	b.WriteString("</svg>\n")
	return b.String()
}

func escape(s string) string {
	s = strings.ReplaceAll(s, "&", "&amp;")
	s = strings.ReplaceAll(s, "<", "&lt;")
	s = strings.ReplaceAll(s, ">", "&gt;")
	return s
}

// RenderLocalSet draws a local disk set in the hub frame: every disk in
// light gray, the skyline arcs in red, the hub at the origin.
func RenderLocalSet(disks []geom.Disk, sl skyline.Skyline) string {
	c := NewCanvas(60)
	for _, d := range disks {
		c.Circle(d.C, d.R, "#cccccc", 0.02)
		c.Dot(d.C, 0.04, "#888888")
	}
	for _, a := range sl {
		c.Arc(geom.Pt(0, 0), disks[a.Disk], a.Start, a.End, "#cc2222", 0.05)
	}
	c.Dot(geom.Pt(0, 0), 0.06, "#2222cc")
	return c.String()
}

// RenderBroadcastTree draws the reverse-path tree of a broadcast: every
// delivered node is connected to the node it first received from, with
// transmitting nodes highlighted. parent[v] = −1 marks the source or an
// unreached node; transmitted may be nil.
func RenderBroadcastTree(g *network.Graph, source int, parent []int, transmitted []bool) string {
	c := NewCanvas(40)
	for v, p := range parent {
		if p >= 0 {
			c.Line(g.Node(p).Pos, g.Node(v).Pos, "#99bbee", 0.04)
		}
	}
	for v := 0; v < g.Len(); v++ {
		switch {
		case v == source:
			c.Dot(g.Node(v).Pos, 0.14, "#2222cc")
		case transmitted != nil && v < len(transmitted) && transmitted[v]:
			c.Dot(g.Node(v).Pos, 0.1, "#cc2222")
		case v < len(parent) && parent[v] >= 0:
			c.Dot(g.Node(v).Pos, 0.07, "#44aa44")
		default:
			c.Dot(g.Node(v).Pos, 0.07, "#bbbbbb") // unreached
		}
	}
	return c.String()
}

// RenderNetwork draws a deployment with its links, highlighting the source
// and a forwarding set.
func RenderNetwork(g *network.Graph, source int, fwdSet []int) string {
	c := NewCanvas(40)
	inSet := make(map[int]bool, len(fwdSet))
	for _, w := range fwdSet {
		inSet[w] = true
	}
	for u := 0; u < g.Len(); u++ {
		for _, v := range g.Neighbors(u) {
			if v > u {
				c.Line(g.Node(u).Pos, g.Node(v).Pos, "#dddddd", 0.02)
			}
		}
	}
	for u := 0; u < g.Len(); u++ {
		switch {
		case u == source:
			c.Dot(g.Node(u).Pos, 0.12, "#2222cc")
			c.Circle(g.Node(u).Pos, g.Node(u).Radius, "#2222cc", 0.03)
		case inSet[u]:
			c.Dot(g.Node(u).Pos, 0.1, "#cc2222")
			c.Circle(g.Node(u).Pos, g.Node(u).Radius, "#cc2222", 0.02)
		default:
			c.Dot(g.Node(u).Pos, 0.07, "#888888")
		}
	}
	return c.String()
}
